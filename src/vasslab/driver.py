"""CLI, file I/O, the end-to-end separability pipeline, and the two explicit
searches the pipeline runs: the capped N-reachability BFS of the intersection
stage (which `reach` runs too) and the bounded Dyck words of the verify stage.

Exit codes: 0 certified verdict, 2 input error, 3 unknown / resource exhausted.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, fields

from .automata import Nfa, dump_nfa, empty_nfa, first_mistake, nfa_to_dot, strip_hash, union
from .chareq import build_char
from .decomposition import decompose, trace_to_jsonl
from .errors import ArgumentError, InvariantViolation, ResourceExhausted, StructuralError
from .mgts import (
    Dmgts,
    PipelineCaps,
    dmgts_from_json,
    fold_to_mgts_list,
    initial_parts,
)
from .model import (
    EPSILON,
    Edge,
    GenConfig,
    InitVass,
    Run,
    Vass,
    dyck_alphabet,
    dyck_vas,
    init_vass_from_json,
    language_bounded,
    search_run,
)
from .semilinear import (
    LinearSet,
    approx_automaton,
    approx_member,
    basic_member,
    counterexample_member,
    family_cov,
    family_drift,
    family_mod,
    linear_set_to_json,
    move_word,
    residue_nfa,
)
from .separator import lambert_pump, lift_separator, modulo_automaton
from .solver import ilp_feasible
from .values import is_omega
from .zsep import z_separability


@dataclass
class PipelineReport:
    verdict: str                     # "separable" | "inseparable" | "unknown"
    witness: tuple = None            # a word in both languages, when found
    z_pair: list = None
    separator: Nfa = None
    stages: list = field(default_factory=list)
    trace: list = field(default_factory=list)
    caps: PipelineCaps = None

    def to_json(self):
        doc = {
            "verdict": self.verdict,
            "stages": self.stages,
            "caps": vars(self.caps) if self.caps else None,
        }
        if self.witness is not None:
            doc["witness"] = list(self.witness)
        if self.z_pair is not None:
            doc["z_pair"] = [[list(a), list(b)] for a, b in self.z_pair]
        if self.separator is not None:
            doc["separator"] = json.loads(dump_nfa(self.separator))
        return doc


# -- explicit searches -----------------------------------------------------------

@dataclass(frozen=True)
class BfsResult:
    status: str          # "reachable" | "unreachable" | "inconclusive"
    word: tuple = None


def oracle_bfs(iv: InitVass, counter_cap: int, length_cap: int) -> BfsResult:
    """Explicit-state N-reachability with value and length caps. `unreachable`
    is certified only when no branch was pruned by the caps."""
    if any(is_omega(v) for v in iv.init.valuation.values()):
        raise ArgumentError("oracle_bfs needs a finite initial valuation")
    counters = iv.vass.counters
    want = [(k, iv.final.valuation[c]) for k, c in enumerate(counters)
            if not is_omega(iv.final.valuation[c])]
    path, pruned = search_run(
        iv.vass, iv.init.node, [iv.init.valuation[c] for c in counters], counters,
        lambda node, vals: node == iv.final.node and all(vals[k] == v for k, v in want),
        max_len=length_cap, value_cap=counter_cap)
    if path is not None:
        return BfsResult("reachable", Run(iv.init, path).word(iv.vass))
    return BfsResult("inconclusive" if pruned else "unreachable")


def dyck_sorted(words, n: int) -> list:
    """Words over Σ_n in prefix-first lexicographic order of the letters
    a1, ā1, ..., an, ān."""
    rank = {a: k for k, a in enumerate(dyck_alphabet(n))}
    return sorted(words, key=lambda w: [rank[a] for a in w])


def dyck_words(n: int, max_len: int):
    """All Dyck words over Σ_n up to the length, in `dyck_sorted` order."""
    return dyck_sorted(language_bounded(dyck_vas(n), max_len, value_cap=max_len), n)


# -- reachability ------------------------------------------------------------------

def reach_decide(mgts_list, caps: PipelineCaps = PipelineCaps()):
    """Decomposition-based reachability over MGTS that together make up the
    runs (`fold_to_mgts_list` of an initialized VASS, or the parts of a
    subject): each one wrapped as a DMGTS whose counters are all X, with an
    empty Dyck side; reachable iff some perfect member's system is feasible
    (the classical iff chain). Returns ("reachable", (member, solution)) or
    ("unreachable", None)."""
    for mgts in mgts_list:
        dm = Dmgts(mgts, 1, mgts.counters, (), faithful=True)
        res = decompose(dm, caps)
        for member in res.perfect:
            sol = ilp_feasible(build_char(member, "full").system,
                               node_budget=caps.ilp_nodes)
            if sol is not None:
                return "reachable", (member, sol)
    return "unreachable", None


def _bfs_or_inconclusive(iv, caps):
    try:
        return oracle_bfs(iv, caps.counter_cap, caps.max_run_len)
    except ArgumentError:  # ω initial valuations: the explicit search cannot seed
        return BfsResult("inconclusive")


def cmd_reach(iv: InitVass, caps: PipelineCaps = PipelineCaps()) -> dict:
    bfs = _bfs_or_inconclusive(iv, caps)
    verdict, _ = reach_decide(fold_to_mgts_list(iv), caps)
    if bfs.status == "reachable" and verdict != "reachable":
        raise InvariantViolation("reachability engines disagree (BFS found a run)")
    return {"verdict": verdict, "bfs": bfs.status,
            "bfs_word": list(bfs.word) if bfs.word is not None else None}


# -- the separability pipeline --------------------------------------------------------

def _mod_certificate_nfa(member: Dmgts) -> Nfa:
    """The separator of a modulo-decided member: words whose effect on the
    certificate counter matches its non-zero out-marking residue."""
    n = len(member.y_counters)
    mu = member.mu
    out = member.mgts.out_marking
    for idx, c in enumerate(member.y_counters, start=1):
        v = out[c]
        if not is_omega(v) and v % mu != 0:
            return residue_nfa(mu, {idx: v}, n)
    raise InvariantViolation("modulo-decided member without a non-zero Y out-marking")


def _word_runs(iv: InitVass, word, start: dict) -> InitVass:
    """The runs of iv from (its init node, start) that read `word`: each node
    paired with the number of letters read, which an ε-edge keeps and an edge
    reading the next letter advances."""
    edges = [Edge((e.src, i), e.label, e.update, (e.dst, i + (e.label != EPSILON)))
             for i in range(len(word) + 1) for e in iv.vass.edges
             if e.label == EPSILON or (i < len(word) and e.label == word[i])]
    nodes = [(q, i) for q in iv.vass.nodes for i in range(len(word) + 1)]
    return InitVass(Vass(nodes, iv.vass.alphabet, iv.vass.counters, edges),
                    GenConfig((iv.init.node, 0), start),
                    GenConfig((iv.final.node, len(word)), iv.final.valuation))


def _recheck_witness(subject: InitVass, word, start: dict, max_len: int, value_cap: int):
    """Raise InvariantViolation unless `word` is a Dyck word and a word of
    L(subject), read by a run from (init node, start) within max_len edges and
    values <= value_cap: one bounded run search on each language."""
    dyck = dyck_vas(len(subject.vass.alphabet) // 2)
    for what, iv, begin, steps, cap in (
            ("the subject", subject, start, max_len, value_cap),
            ("the Dyck language", dyck, dyck.init.valuation, len(word), len(word))):
        seeded = all(is_omega(v) or v == begin[c] for c, v in iv.init.valuation.items())
        if not seeded or oracle_bfs(_word_runs(iv, word, begin), cap, steps).status != "reachable":
            raise InvariantViolation(f"intersection witness {list(word)} is not a word of {what}")


def _run_peak(run: Run, vass: Vass) -> int:
    """The largest counter value along the run."""
    val, peak = dict(run.start.valuation), max(run.start.valuation.values(), default=0)
    for i in run.edge_seq:
        val = {c: v + vass.edges[i].update[c] for c, v in val.items()}
        peak = max(peak, *val.values(), 0)
    return peak


def cmd_separate(subject: InitVass, caps: PipelineCaps = PipelineCaps()) -> PipelineReport:
    """Decide L(subject) | Dyck_n. L(subject) is the union of the X-side
    languages of `initial_parts(subject)`, and a finite union is separable
    from Dyck_n iff each of its members is. So: emptiness of the intersection
    over the parts first (every witness re-checked on the subject), then per
    part the decomposition and, per perfect member, the Z-separability oracle
    with lifting; decided members are separable by construction. The first
    part that is not separable decides; otherwise the union of every part's
    separators passes the bounded coverage and disjointness checks against
    L(subject)."""
    report = PipelineReport(verdict="unknown", caps=caps)
    parts = initial_parts(subject)
    n = len(subject.vass.alphabet) // 2
    for part in parts:
        bfs = _bfs_or_inconclusive(part.mgts.combined()[0], caps)
        if bfs.status == "reachable":
            _recheck_witness(subject, bfs.word, subject.init.valuation,
                             caps.max_run_len, caps.counter_cap)
            report.verdict = "inseparable"
            report.witness = bfs.word
            report.stages.append({"stage": "intersection", "result": "nonempty-bfs"})
            return report
    verdict, hit = reach_decide([part.mgts for part in parts], caps)
    if verdict == "reachable":
        member, sol = hit
        run = lambert_pump(member, sol, k_cap=caps.pump_k)
        iv, _ = member.mgts.combined()
        word = run.word(iv.vass)
        start = {c: run.start.valuation[f"x.{c}"] for c in subject.vass.counters}
        _recheck_witness(subject, word, start, len(run.edge_seq), _run_peak(run, iv.vass))
        report.verdict = "inseparable"
        report.witness = word
        report.stages.append({"stage": "intersection", "result": "nonempty-decomposition"})
        return report
    report.stages.append({"stage": "intersection", "result": "empty-certified"})

    separators = []
    for i, part in enumerate(parts):
        res = decompose(part, caps)
        report.trace += res.trace
        report.stages.append({"stage": "decompose", "part": i, "perfect": len(res.perfect),
                              "decided": len(res.decided)})
        for member in res.perfect:
            v = z_separability(member, caps)
            if v.kind == "inseparable":
                report.verdict = "inseparable"
                report.z_pair = v.z_pair
                report.stages.append({"stage": "zsep", "result": "inseparable",
                                      "strategy": v.strategy})
                return report
            if v.kind == "unknown":
                report.stages.append({"stage": "zsep", "result": "unknown",
                                      "reason": v.reason})
                return report
            separators.append(lift_separator(v.nfa, member))
            report.stages.append({"stage": "zsep", "result": "separable",
                                  "strategy": v.strategy})
        for member in res.decided:
            if member.certificate == "y-infeasible":
                separators.append(strip_hash(modulo_automaton(member.dmgts)))
            else:
                separators.append(_mod_certificate_nfa(member.dmgts))

    alphabet = frozenset(dyck_alphabet(n))
    sep = union(separators, alphabet) if separators else empty_nfa(alphabet)

    # the cap bounds values above the start: a cap below a finite initial value
    # would prune every edge and leave the coverage check with no word
    top = max((v for v in subject.init.valuation.values() if not is_omega(v)), default=0)
    subject_words = language_bounded(
        subject, caps.max_word_len,
        max_run_len=caps.max_run_len + caps.max_word_len, value_cap=top + caps.counter_cap,
    )
    mistake = first_mistake(sep, dyck_sorted(subject_words, n), dyck_words(n, caps.max_word_len))
    if mistake is not None:
        word, inclusion = mistake
        report.stages.append({"stage": "verify", "result": f"{inclusion}-failed",
                              "word": list(word)})
        return report
    report.stages.append({"stage": "verify", "result": "ok",
                          "len": caps.max_word_len})
    report.verdict = "separable"
    report.separator = sep
    return report


# -- CLI ---------------------------------------------------------------------------

def _parse_word(text: str) -> tuple:
    return tuple(text.split()) if text.strip() else ()


def _parse_vector(text: str, flag: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ArgumentError(f"{flag} needs comma-separated integers, got {text!r}")


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


# the PipelineCaps fields that each verb reads
_DECOMPOSE_CAPS = {"ilp_nodes", "observer_states", "variants"}
_REACH_CAPS = _DECOMPOSE_CAPS | {"max_run_len", "counter_cap"}
_SEPARATE_CAPS = {f.name for f in fields(PipelineCaps)}


def _add_caps(parser, names):
    """One flag per named PipelineCaps field (--max-word-len for
    max_word_len), with that field's default."""
    for f in fields(PipelineCaps):
        if f.name in names:
            parser.add_argument("--" + f.name.replace("_", "-"), type=_nonneg_int,
                                default=f.default)


def _caps_from(args) -> PipelineCaps:
    """The caps set by a verb's flags; the fields it does not read keep their
    defaults."""
    return PipelineCaps(**{f.name: getattr(args, f.name)
                           for f in fields(PipelineCaps) if hasattr(args, f.name)})


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ArgumentError(f"bad JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except OSError as exc:
        raise ArgumentError(str(exc))


def _write_text(path, text):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ArgumentError(str(exc))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vasslab",
        description="Regular separability of VASS reachability languages from Dyck languages",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("separate", help="decide L(subject) | Dyck_n")
    p.add_argument("--file", required=True)
    _add_caps(p, _SEPARATE_CAPS)

    p = sub.add_parser("reach", help="decide N-reachability of an initialized VASS")
    p.add_argument("--file", required=True)
    _add_caps(p, _REACH_CAPS)

    p = sub.add_parser("decompose", help="decompose a DMGTS into perfect and decided sets")
    p.add_argument("--file", required=True)
    p.add_argument("--trace-out", help="also write the trace as JSONL here")
    p.add_argument("--dot", help="write the first perfect member's modulo automaton DOT here")
    _add_caps(p, _DECOMPOSE_CAPS)

    p = sub.add_parser("approx", help="k-th regular approximation of a linear set")
    p.add_argument("--base", required=True, help="comma-separated integers")
    p.add_argument("--periods", default="", help="semicolon-separated comma vectors")
    p.add_argument("--k", type=_nonneg_int, required=True)
    p.add_argument("--member", help="space-separated word to test")
    p.add_argument("--emit", action="store_true", help="emit the automaton JSON")

    p = sub.add_parser("basicsep", help="family members of the basic separators")
    p.add_argument("--family", choices=["mod", "cov", "drift"], required=True)
    p.add_argument("--mu", type=int, default=2)
    p.add_argument("--v", default="1", help="comma-separated vector")
    p.add_argument("--k", type=_nonneg_int, default=1)
    p.add_argument("--i", type=int, default=1)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--member", help="space-separated word to test")

    p = sub.add_parser("counterexample", help="the concatenation-hard family")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--i", type=int)
    p.add_argument("--member", help="space-separated word to test")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ArgumentError, StructuralError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceExhausted as exc:
        print(f"resource-exhausted: {exc}", file=sys.stderr)
        return 3


def _dispatch(args) -> int:
    if args.command == "separate":
        subject = init_vass_from_json(_load_json(args.file))
        report = cmd_separate(subject, _caps_from(args))
        print(json.dumps(report.to_json(), sort_keys=True, indent=2))
        return 0 if report.verdict in ("separable", "inseparable") else 3

    if args.command == "reach":
        iv = init_vass_from_json(_load_json(args.file))
        out = cmd_reach(iv, _caps_from(args))
        print(json.dumps(out, sort_keys=True, indent=2))
        return 0

    if args.command == "decompose":
        dm = dmgts_from_json(_load_json(args.file))
        res = decompose(dm, _caps_from(args))
        # the files first: an unwritable path exits 2 before anything is printed
        if args.trace_out:
            _write_text(args.trace_out, trace_to_jsonl(res.trace) + "\n")
        if args.dot and res.perfect:
            _write_text(args.dot, nfa_to_dot(strip_hash(modulo_automaton(res.perfect[0]))))
        print(json.dumps({
            "perfect": len(res.perfect),
            "decided": [d.certificate for d in res.decided],
            "trace": res.trace,
        }, sort_keys=True, indent=2))
        return 0

    if args.command == "approx":
        base = _parse_vector(args.base, "--base")
        periods = tuple(
            _parse_vector(p, "--periods") for p in args.periods.split(";") if p.strip()
        )
        lin = LinearSet(base, periods)
        if args.member is not None:
            ok = approx_member(lin, args.k, _parse_word(args.member))
            print(json.dumps({"member": ok}))
        if args.emit:
            print(dump_nfa(approx_automaton(lin, args.k)))
        return 0

    if args.command == "basicsep":
        v = _parse_vector(args.v, "--v")
        if args.family == "mod":
            desc = family_mod(args.mu, v, args.n)
        elif args.family == "cov":
            desc = family_cov(args.k, args.i, args.n)
        else:
            desc = family_drift(v, args.k)
        out = {"k": desc.k, "chain": [linear_set_to_json(lin) for lin in desc.chain]}
        if args.member is not None:
            out["member"] = basic_member(desc, _parse_word(args.member))
        print(json.dumps(out, sort_keys=True))
        return 0

    if args.command == "counterexample":
        if args.member is not None:
            print(json.dumps({"member": counterexample_member(args.ell, _parse_word(args.member))}))
        elif args.i is not None:
            print(" ".join(move_word(args.i, args.ell)))
        else:
            raise ArgumentError("counterexample needs --i or --member")
        return 0

    raise ArgumentError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
