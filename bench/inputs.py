"""Workload inputs, as plain JSON documents.

Nothing here imports vasslab: the subjects are written in the CLI's subject
format and the DMGTS in the `dmgts_to_json` format, so the program receives
only these documents and the reference checks read the same ones. The
structure of every input is fixed; the seed renames nodes, counters and NFA
states (see "naming" below and bench/README.md for why).
"""

import random

from reference import RefNfa, dyck_words

A1, AB1, A2 = "a1", "ā1", "a2"
OMEGA = "omega"
DEFAULT_SEED = 20240809


def dyck_letters(n):
    out = []
    for i in range(1, n + 1):
        out += [f"a{i}", f"ā{i}"]
    return out


def subject(nodes, n, counters, edges, init, final):
    """A subject document; `edges` are (src, label, {counter: delta}, dst)."""
    return {
        "nodes": list(nodes),
        "alphabet": dyck_letters(n),
        "counters": list(counters),
        "edges": [{"from": s, "label": a, "update": {c: u.get(c, 0) for c in counters},
                   "to": d} for s, a, u, d in edges],
        "init": {"node": init[0], "valuation": dict(init[1])},
        "final": {"node": final[0], "valuation": dict(final[1])},
    }


# -- the subjects of the `separate` workload ----------------------------------
# Each entry: (name, subject, max_word_len for the pipeline, known verdict,
# Dyck dimension, length up to which the separator is re-checked).

def dyck_copy():
    return subject(["q"], 1, ["y1"], [("q", A1, {"y1": 1}, "q"), ("q", AB1, {"y1": -1}, "q")],
                   ("q", {"y1": 0}), ("q", {"y1": 0}))


def even_a1():
    return subject(["p", "q", "s"], 1, [],
                   [("p", A1, {}, "q"), ("q", A1, {}, "s"), ("s", A1, {}, "q")],
                   ("p", {}), ("s", {}))


def odd_a1():
    doc = even_a1()
    doc["final"] = {"node": "q", "valuation": {}}
    return doc


def counter_gap():
    return subject(["q"], 1, ["k"], [("q", A1, {"k": 1}, "q"), ("q", AB1, {"k": -1}, "q")],
                   ("q", {"k": 0}), ("q", {"k": 2}))


def two_letter():
    return subject(["q"], 2, [], [("q", A1, {}, "q"), ("q", AB1, {}, "q"), ("q", A2, {}, "q")],
                   ("q", {}), ("q", {}))


SEPARATE_SUBJECTS = [
    ("dyck-copy", dyck_copy(), 10, "inseparable", 1, 12),
    ("omega-init",
     subject(["q"], 1, ["k"], [("q", A1, {"k": -1}, "q")], ("q", {"k": OMEGA}), ("q", {"k": 0})),
     10, "inseparable", 1, 12),
    ("even-a1", even_a1(), 10, "separable", 1, 12),
    ("odd-a1", odd_a1(), 10, "separable", 1, 12),
    ("empty", subject(["p", "q"], 1, [], [("p", A1, {}, "q")], ("q", {}), ("p", {})),
     10, "separable", 1, 12),
    ("counter-gap", counter_gap(), 10, "separable", 1, 12),
    ("dyck-a1",
     subject(["q", "f"], 1, ["k"],
             [("q", A1, {"k": 1}, "q"), ("q", AB1, {"k": -1}, "q"), ("q", A1, {"k": 1}, "f")],
             ("q", {"k": 0}), ("f", {"k": 1})),
     6, "separable", 1, 14),
    ("dyck2-loops",
     subject(["q"], 2, ["k"],
             [("q", A1, {"k": 1}, "q"), ("q", AB1, {"k": -1}, "q"), ("q", A2, {}, "q")],
             ("q", {"k": 0}), ("q", {"k": 1})),
     8, "separable", 2, 8),
    ("dyck2-prefix",
     subject(["p", "q"], 2, [], [("p", A2, {}, "q"), ("q", A1, {}, "q"), ("q", AB1, {}, "q")],
             ("p", {}), ("q", {})),
     8, "separable", 2, 8),
]


# -- the curated DMGTS of the `decompose-langs` workload -----------------------

def precovering(nodes, n, counters, edges, root, in_val, out_val, assignment):
    return {"base": subject(nodes, n, counters, edges, (root, in_val), (root, out_val)),
            "assignment": assignment}


def dmgts(graphs, mu, xs, ys, bridges=()):
    return {"mu": mu, "x_counters": list(xs), "y_counters": list(ys), "faithful": True,
            "graphs": list(graphs),
            "bridges": [{"label": a, "hash": True, "update": dict(u)} for a, u in bridges]}


def dyck_copy_graph(root="r", in_y=0, out_y=0):
    return precovering([root], 1, ["y1"],
                       [(root, A1, {"y1": 1}, root), (root, AB1, {"y1": -1}, root)],
                       root, {"y1": in_y}, {"y1": out_y}, {root: {"y1": OMEGA}})


def bounded_omega_exit(mu):
    g = precovering(["p", "q"], 1, ["y1"], [("p", A1, {"y1": 1}, "q"), ("q", AB1, {"y1": -1}, "p")],
                    "p", {"y1": 0}, {"y1": OMEGA}, {"p": {"y1": OMEGA}, "q": {"y1": OMEGA}})
    return dmgts([g], mu, [], ["y1"])


def two_graph(bridge_label="", bridge_update=None):
    g1 = dyck_copy_graph("r1", 0, OMEGA)
    g2 = dyck_copy_graph("r2", OMEGA, 0)
    upd = {"y1": 0} if bridge_update is None else bridge_update
    return dmgts([g1, g2], 1, [], ["y1"], [(bridge_label, upd)])


def dip_pump():
    g = precovering(["p", "q"], 1, ["c", "y1"],
                    [("p", AB1, {"c": -1, "y1": -1}, "q"), ("q", A1, {"c": 2, "y1": 1}, "p")],
                    "p", {"c": 0, "y1": 0}, {"c": OMEGA, "y1": 0},
                    {q: {"c": OMEGA, "y1": OMEGA} for q in ("p", "q")})
    return dmgts([g], 1, ["c"], ["y1"])


def dip_down():
    # descending to zero needs an overshoot first, so only the down-covering
    # sequence is missing
    g = precovering(["p", "q"], 1, ["c"], [("p", A1, {"c": -2}, "q"), ("q", AB1, {"c": 1}, "p")],
                    "p", {"c": OMEGA}, {"c": 0}, {"p": {"c": OMEGA}, "q": {"c": OMEGA}})
    return dmgts([g], 1, ["c"], [])


# Each entry: (name, kind, document). kind "subject" documents are turned into
# their initial DMGTS by the program, and their X-side words must equal the
# subject language; kind "dmgts" documents are loaded as they are. A costly
# one goes first, so that lazy set-up does not land on an operation near the
# median time.
CURATED_DMGTS = [
    ("even-a1", "subject", even_a1()),
    ("odd-a1", "subject", odd_a1()),
    ("two-letter", "subject", two_letter()),
    ("dyck-copy", "subject", dyck_copy()),
    ("counter-gap", "subject", counter_gap()),
    ("dyck-copy-mu2", "dmgts", dmgts([dyck_copy_graph()], 2, [], ["y1"])),
    ("dyck-copy-mu3", "dmgts", dmgts([dyck_copy_graph()], 3, [], ["y1"])),
    ("bounded-omega-exit", "dmgts", bounded_omega_exit(1)),
    ("bounded-omega-exit-mu2", "dmgts", bounded_omega_exit(2)),
    ("dip-pump", "dmgts", dip_pump()),
    ("dip-down", "dmgts", dip_down()),
    ("two-graph-eps", "dmgts", two_graph()),
    ("two-graph-a1", "dmgts", two_graph(A1, {"y1": 1})),
]
# The bounded X-side languages are enumerated up to this word length, with
# criterion 5's caps (max_run_len, value_cap); at length 7 the `two-letter`
# member alone takes about a minute.
SIDE_LANGUAGE_LEN = 6
SIDE_LANGUAGE_CAPS = (12, 40)


# -- the toolkit workload -------------------------------------------------------
# The NFAs and descriptors of acceptance criteria 9 and 10, drawn by the
# tests' generators at the tests' seed. A fresh draw per benchmark seed would
# make `wall_s` depend on the seed: two of criterion 9's 100 NFAs cost as much
# as the other 98.

NFA_CHECK_LEN = {1: 8, 2: 6}
DYCK_CHECK_LEN = {1: 10, 2: 8}
CRITERION_9_SEED = DEFAULT_SEED + 1009
CRITERION_10_SEED = DEFAULT_SEED + 1010


def toolkit_nfas():
    rng = random.Random(CRITERION_9_SEED)
    out = []
    for trial in range(100):
        n = 1 if trial < 80 else 2
        states = [f"s{i}" for i in range(rng.randint(1, 3))]
        letters = dyck_letters(n)
        transitions = set()
        for _ in range(rng.randint(1, 4)):
            transitions.add((rng.choice(states), rng.choice(letters), rng.choice(states)))
        doc = {"n": n, "states": states, "transitions": sorted(transitions),
               "initial": states[0], "final": rng.choice(states)}
        nfa = RefNfa(states, transitions, [doc["initial"]], [doc["final"]])
        doc["words"] = sorted(nfa.words(letters, NFA_CHECK_LEN[n]))
        out.append(doc)
    return out


def certifiable_chain(vecs):
    """0 is not in the ⊕-sum of singleton sets iff some prefix sum has a
    negative entry or the total is non-zero."""
    acc = [0] * len(vecs[0])
    for v in vecs:
        acc = [a + x for a, x in zip(acc, v)]
        if min(acc) < 0:
            return True
    return any(acc)


def toolkit_descriptors():
    """The 50 descriptors of acceptance criterion 10: the 29 family members,
    then the first 21 certifiable 3-chains of random singleton sets in
    [-2, 2]^n."""
    descs = []
    for mu in (2, 3, 4):
        for v in range(1, mu):
            descs.append({"n": 1, "family": "mod", "args": [mu, [v], 1]})
    for mu, v in ((2, [1, 0]), (2, [0, 1]), (3, [1, 2])):
        descs.append({"n": 2, "family": "mod", "args": [mu, v, 2]})
    for k in (0, 1, 2, 3):
        descs.append({"n": 1, "family": "cov", "args": [k, 1, 1]})
        descs.append({"n": 2, "family": "cov", "args": [k, 1, 2]})
        descs.append({"n": 2, "family": "cov", "args": [k, 2, 2]})
    for v in ([1], [2], [-1], [1, 0], [0, 1], [1, 1], [1, -1], [2, 1]):
        descs.append({"n": len(v), "family": "drift", "args": [v, 1]})
    rng = random.Random(CRITERION_10_SEED)
    while len(descs) < 50:
        n = rng.choice((1, 2))
        vecs = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(3)]
        if certifiable_chain(vecs):
            descs.append({"n": n, "family": "chain", "args": [vecs, 2]})
    return descs


def toolkit_inputs():
    return {
        "nfas": toolkit_nfas(),
        "descriptors": toolkit_descriptors(),
        "dyck": {str(n): dyck_words(n, m) for n, m in DYCK_CHECK_LEN.items()},
    }


# -- naming ---------------------------------------------------------------------
# The seed renames every node, counter and NFA state by appending one seeded
# token after a ".". The sorted order of the names, by which the program walks
# its inputs, stays the same ("." sorts before letters and digits), so the
# work done is the same for every seed, while the documents the program
# receives are new.

def _renamer(seed):
    token = "." + format(random.Random(seed).getrandbits(24), "06x")
    return lambda name: name + token


def _rename_subject(doc, new):
    def valuation(v):
        return {new(c): x for c, x in v.items()}

    return {
        "nodes": [new(q) for q in doc["nodes"]],
        "alphabet": doc["alphabet"],
        "counters": [new(c) for c in doc["counters"]],
        "edges": [{"from": new(e["from"]), "label": e["label"],
                   "update": valuation(e["update"]), "to": new(e["to"])} for e in doc["edges"]],
        "init": {"node": new(doc["init"]["node"]), "valuation": valuation(doc["init"]["valuation"])},
        "final": {"node": new(doc["final"]["node"]),
                  "valuation": valuation(doc["final"]["valuation"])},
    }


def _rename_dmgts(doc, new):
    return dict(
        doc,
        x_counters=[new(c) for c in doc["x_counters"]],
        y_counters=[new(c) for c in doc["y_counters"]],
        graphs=[{"base": _rename_subject(g["base"], new),
                 "assignment": {new(q): {new(c): v for c, v in a.items()}
                                for q, a in g["assignment"].items()}}
                for g in doc["graphs"]],
        bridges=[dict(b, update={new(c): v for c, v in b["update"].items()})
                 for b in doc["bridges"]],
    )


def _rename_nfa(doc, new):
    return dict(doc, states=[new(s) for s in doc["states"]],
                transitions=[(new(p), a, new(q)) for p, a, q in doc["transitions"]],
                initial=new(doc["initial"]), final=new(doc["final"]))


def workload_inputs(workload, seed):
    new = _renamer(seed)
    if workload == "separate":
        return {"subjects": [(name, _rename_subject(doc, new), *rest)
                             for name, doc, *rest in SEPARATE_SUBJECTS]}
    if workload == "decompose-langs":
        return {"dmgts": [(name, kind, (_rename_subject if kind == "subject" else _rename_dmgts)
                           (doc, new)) for name, kind, doc in CURATED_DMGTS]}
    if workload == "toolkit":
        doc = toolkit_inputs()
        doc["nfas"] = [_rename_nfa(d, new) for d in doc["nfas"]]
        return doc
    raise ValueError(f"unknown workload {workload!r}")
