"""Checks of each operation's output against the reference computations or
against a property the method must have. Each check returns a list of
problems; an empty list means the output is correct."""

from inputs import SIDE_LANGUAGE_LEN
from reference import RefNfa, dyck_words, is_dyck, letter_effect, spell, vass_words


def check_separate(item, report):
    name, subject, _max_len, verdict, n, check_len = item
    problems = []
    if report["verdict"] != verdict:
        return [f"verdict {report['verdict']!r}, known {verdict!r}"]
    if verdict == "separable":
        sep = RefNfa.from_json(report["separator"])
        for w in sorted(vass_words(subject, check_len)):
            if not sep.accepts(w):
                problems.append(f"separator rejects subject word {w}")
                break
        for w in dyck_words(n, check_len):
            if sep.accepts(w):
                problems.append(f"separator accepts Dyck word {w}")
                break
    elif "witness" in report:
        w = tuple(report["witness"])
        if not is_dyck(w, n):
            problems.append(f"witness {w} is not a Dyck word")
        if w not in vass_words(subject, len(w)):
            problems.append(f"witness {w} is not a subject word")
    elif "z_pair" not in report:
        problems.append(f"inseparable without a witness or a Z-pair")
    return problems


def check_decompose(item, out):
    name, kind, doc = item
    problems = []
    before = {tuple(w) for w in out["input_words"]}
    after = set()
    for m in out["members"]:
        after |= {tuple(w) for w in m["words"]}
    if before != after:
        problems.append(f"X-side words not preserved, differ on {sorted(before ^ after)[:3]}")
    if kind == "subject" and before != vass_words(doc, SIDE_LANGUAGE_LEN):
        problems.append("X-side words differ from the subject language")
    for entry in out["trace"]:
        for rank_after in entry["rank_after"] or ():
            if not rank_after < entry["rank_before"]:
                problems.append(f"refine {entry['case']} does not lower the rank")
    for m in out["members"]:
        if m["certificate"] != "modulo-nonzero":
            continue
        for w in m["words"]:
            eff = letter_effect(w, m["ny"])
            if all(e % m["mu"] == 0 for e in eff):
                problems.append(f"modulo-nonzero member has word {w} of zero effect")
                break
    return problems


def check_nfa(doc, out):
    problems = []
    if out["k"] != (len(doc["states"]) + 1) ** 2:
        problems.append(f"k = {out['k']} for {len(doc['states'])} states")
    if out["uncovered"]:
        problems.append(f"{len(out['uncovered'])} words outside the R(Λ,k) cover, "
                        f"first {out['uncovered'][0]}")
    return problems


def check_descriptor(doc, out):
    if not out["certified"]:
        return [f"{doc['family']} {doc['args']}: no certified descriptor"]
    problems = []
    if len(out["chain"]) > 3:
        problems.append(f"chain of length {len(out['chain'])}")
    if doc["family"] == "chain" and [lin["base"] for lin in out["chain"]] != doc["args"][0]:
        problems.append("chain bases differ from the input")
    if out["dyck_accepted"]:
        problems.append(f"accepts Dyck word {out['dyck_accepted'][0]}")
    control = sum((spell(lin["base"]) for lin in out["chain"]), ())
    if tuple(out["control"]) != control or not out["control_accepted"]:
        problems.append(f"rejects its positive control {control}")
    return problems


def check_round(workload, inputs_doc, ops, indices=None):
    """Problems of the non-failed operations of one round, which ran the
    inputs at `indices` (all of them if None), in that order."""
    if workload == "separate":
        pairs = [(check_separate, (item,)) for item in inputs_doc["subjects"]]
    elif workload == "decompose-langs":
        pairs = [(check_decompose, (item,)) for item in inputs_doc["dmgts"]]
    else:
        pairs = [(check_nfa, (d,)) for d in inputs_doc["nfas"]]
        pairs += [(check_descriptor, (d,)) for d in inputs_doc["descriptors"]]
    if indices is None:
        indices = range(len(pairs))
    if [op["index"] for op in ops] != list(indices):
        return [f"operations {[op['index'] for op in ops]} reported for inputs {list(indices)}"]
    problems = []
    for op in ops:
        check, args = pairs[op["index"]]
        if op["error"] is None:
            problems += [f"{op['name']}: {p}" for p in check(*args, op["output"])]
    return problems
