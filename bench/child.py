"""One round of a workload, in a fresh interpreter.

    python3 bench/child.py INPUTS_JSON WORKLOAD [--setup-only] [--only I,J,...]
                           [--spans SPANS_JSONL]

Imports vasslab from the checkout's `src/`, builds the program's objects from
the input documents that run.py wrote, runs every operation once and prints
one JSON line: when set-up ended, the wall and CPU time of each operation,
the peak resident memory, each operation's output for the checks and, when
traced, the per-layer figures. `--only` runs just the operations at those
input positions, in input order; set-up still builds them all.
"""

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from vasslab import automata, decomposition, driver, mgts, model, semilinear  # noqa: E402
# imported too so that the traced run finds every module's bindings
from vasslab import chareq, separator, solver, structure, zsep  # noqa: E402,F401

import inputs  # noqa: E402
from reference import spell  # noqa: E402

# Functions are looked up on their modules when an operation runs, so that
# the traced run reaches the wrapped bindings.


def separate_ops(doc):
    ops = []
    for name, subject, max_len, _verdict, _n, _check_len in doc["subjects"]:
        iv = model.init_vass_from_json(subject)
        caps = driver.PipelineCaps(max_word_len=max_len)

        def run(iv=iv, caps=caps):
            # the report as the CLI prints it
            return json.dumps(driver.cmd_separate(iv, caps).to_json(), sort_keys=True, indent=2)

        ops.append((name, run, json.loads))
    return ops


def _strip(words):
    return sorted({tuple(a for a, _ in w) for w in words})


def decompose_ops(doc):
    caps = mgts.LanguageCaps(*inputs.SIDE_LANGUAGE_CAPS)
    length = inputs.SIDE_LANGUAGE_LEN
    ops = []
    for name, kind, d in doc["dmgts"]:
        if kind == "subject":
            dm = mgts.initial_dmgts(model.init_vass_from_json(d))
        else:
            dm = mgts.dmgts_from_json(d)

        def run(dm=dm):
            res = decomposition.decompose(dm)
            before = mgts.side_language_bounded(dm, "x", length, "nat", caps)
            members = [("perfect", None, m) for m in res.perfect]
            members += [("decided", m.certificate, m.dmgts) for m in res.decided]
            langs = [mgts.side_language_bounded(m, "x", length, "nat", caps)
                     for _, _, m in members]
            return res, before, members, langs

        def describe(raw):
            res, before, members, langs = raw
            return {
                "input_words": _strip(before.words),
                "members": [{"kind": kind, "certificate": cert, "mu": m.mu,
                             "ny": len(m.y_counters), "words": _strip(lang.words)}
                            for (kind, cert, m), lang in zip(members, langs)],
                "trace": [{"case": e["case"], "rank_before": e["rank_before"],
                           "rank_after": e.get("rank_after")} for e in res.trace],
            }

        ops.append((name, run, describe))
    return ops


def _descriptor(family, args):
    if family == "mod":
        return semilinear.family_mod(args[0], tuple(args[1]), args[2])
    if family == "cov":
        return semilinear.family_cov(*args)
    if family == "drift":
        return semilinear.family_drift(tuple(args[0]), args[1])
    chain = [semilinear.LinearSet(tuple(v), ()) for v in args[0]]
    return semilinear.make_basic_separator(chain, args[1])


def toolkit_ops(doc):
    ops = []
    for i, d in enumerate(doc["nfas"]):
        nfa = automata.Nfa(d["states"], [tuple(t) for t in d["transitions"]], {d["initial"]},
                           {d["final"]}, model.dyck_alphabet(d["n"]))
        words = [tuple(w) for w in d["words"]]

        def run(nfa=nfa, words=words):
            k, lins = semilinear.nfa_to_linear_cover(nfa)
            uncovered = [w for w in words
                         if not any(semilinear.approx_member(lin, k, w) for lin in lins)]
            return k, len(lins), uncovered

        ops.append((f"nfa-{i}", run,
                    lambda raw: {"k": raw[0], "lins": raw[1], "uncovered": raw[2]}))
    dyck = {int(n): [tuple(w) for w in ws] for n, ws in doc["dyck"].items()}
    for i, d in enumerate(doc["descriptors"]):
        def run(d=d):
            desc = _descriptor(d["family"], d["args"])
            if not isinstance(desc, semilinear.BasicSeparatorDesc):
                return desc, None, None, None
            accepted = [w for w in dyck[d["n"]] if semilinear.basic_member(desc, w)]
            control = sum((spell(lin.base) for lin in desc.chain), ())
            return desc, accepted, control, semilinear.basic_member(desc, control)

        def describe(raw):
            desc, accepted, control, control_ok = raw
            if accepted is None:
                return {"certified": False}
            return {"certified": True, "k": desc.k,
                    "chain": [{"base": list(lin.base), "periods": [list(p) for p in lin.periods]}
                              for lin in desc.chain],
                    "dyck_accepted": accepted, "control": control,
                    "control_accepted": control_ok}

        ops.append((f"desc-{i}-{d['family']}", run, describe))
    return ops


BUILDERS = {"separate": separate_ops, "decompose-langs": decompose_ops, "toolkit": toolkit_ops}


def main(argv):
    inputs_path, workload = argv[0], argv[1]
    with open(inputs_path) as fh:
        ops = BUILDERS[workload](json.load(fh))
    ready_at = time.time()
    if "--setup-only" in argv:
        print(json.dumps({"ready_at": ready_at}))
        return 0
    indices = range(len(ops))
    if "--only" in argv:
        indices = [int(i) for i in argv[argv.index("--only") + 1].split(",")]
    tracer = None
    if "--spans" in argv:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    timed = []
    for index in indices:
        name, run, describe = ops[index]
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            raw, error = run(), None
        except Exception as exc:  # a failed operation is counted, the round goes on
            raw, error = None, f"{type(exc).__name__}: {exc}"
        t1, c1 = time.perf_counter(), time.process_time()
        timed.append((index, name, t1 - t0, c1 - c0, raw, error, describe))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report = {
        "ready_at": ready_at,
        "peak_rss_mb": peak_kb / 1024,
        "ops": [{"index": index, "name": name, "wall_s": wall, "cpu_s": cpu, "error": error,
                 "output": None if error else describe(raw)}
                for index, name, wall, cpu, raw, error, describe in timed],
    }
    if tracer is not None:
        report["layers"] = tracer.metrics()
        tracer.write(argv[argv.index("--spans") + 1])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
