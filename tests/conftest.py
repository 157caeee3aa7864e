"""Shared builders and seeded generators for the test suite.

VASSLAB_SEED fixes the random instance generation (default 20240809); the
algorithms under test are deterministic.
"""

import os
import random

import pytest
from hypothesis import settings

# property tests replay the same cases on every run; instance generation is
# seeded by VASSLAB_SEED below
settings.register_profile("vasslab", derandomize=True, deadline=None, max_examples=40)
settings.load_profile("vasslab")

from vasslab.mgts import Dmgts, Mgts, PrecoveringGraph, Update
from vasslab.model import (
    Edge,
    GenConfig,
    InitVass,
    Vass,
    dec_letter,
    dyck_alphabet,
    inc_letter,
)
from vasslab.values import OMEGA

SEED = int(os.environ.get("VASSLAB_SEED", "20240809"))


@pytest.fixture
def rng():
    return random.Random(SEED)


def make_rng(offset=0):
    return random.Random(SEED + offset)


ABAR1 = dec_letter(1)
ABAR2 = dec_letter(2)


def graph_loops(loops, counters, in_val, out_val, assignment=None, alphabet=None,
                root="r"):
    """A one-node precovering graph from (label, update dict) loops."""
    counters = list(counters)
    edges = []
    for label, upd in loops:
        full = {c: upd.get(c, 0) for c in counters}
        edges.append(Edge(root, label, full, root))
    if alphabet is None:
        alphabet = sorted({lab for lab, _ in loops if lab})
    vass = Vass([root], alphabet, counters, edges)
    base = InitVass(
        vass,
        GenConfig(root, {c: in_val.get(c, 0) for c in counters}),
        GenConfig(root, {c: out_val.get(c, 0) for c in counters}),
    )
    if assignment is None:
        assignment = {root: {c: OMEGA for c in counters}}
    return PrecoveringGraph(base, assignment)


def dyck_copy_graph(in_y=0, out_y=0, root="r"):
    return graph_loops(
        [(inc_letter(1), {"y1": 1}), (dec_letter(1), {"y1": -1})],
        ["y1"],
        {"y1": in_y},
        {"y1": out_y},
        alphabet=dyck_alphabet(1),
        root=root,
    )


def dyck_copy_dmgts(mu=1):
    return Dmgts(Mgts([dyck_copy_graph()]), mu, (), ("y1",), faithful=True)


def random_precovering(rng, max_nodes=3, n_counters=2, max_upd=2, letters=("a", "b")):
    """A valid random precovering graph: strongly connected base, consistent
    assignment (concrete counters follow a random node potential)."""
    k = rng.randint(1, max_nodes)
    nodes = [f"n{i}" for i in range(k)]
    counters = [f"c{i}" for i in range(n_counters)]
    kinds = {c: rng.choice(["omega", "potential"]) for c in counters}
    potential = {
        c: {q: rng.randint(0, 3) for q in nodes} for c in counters if kinds[c] == "potential"
    }
    edge_pairs = [(nodes[i], nodes[(i + 1) % k]) for i in range(k)] if k > 1 else []
    for _ in range(rng.randint(1, 3)):
        edge_pairs.append((rng.choice(nodes), rng.choice(nodes)))
    edges = []
    for src, dst in edge_pairs:
        upd = {}
        for c in counters:
            if kinds[c] == "omega":
                upd[c] = rng.randint(-max_upd, max_upd)
            else:
                upd[c] = potential[c][dst] - potential[c][src]
        edges.append(Edge(src, rng.choice(list(letters) + [""]), upd, dst))
    root = nodes[0]
    assignment = {}
    for q in nodes:
        assignment[q] = {
            c: (OMEGA if kinds[c] == "omega" else potential[c][q]) for c in counters
        }
    in_val, out_val = {}, {}
    for c in counters:
        if kinds[c] == "potential":
            in_val[c] = out_val[c] = potential[c][root]
        else:
            in_val[c] = rng.choice([OMEGA, rng.randint(0, 2)])
            out_val[c] = rng.choice([OMEGA, rng.randint(0, 2)])
    vass = Vass(nodes, letters, counters, edges)
    base = InitVass(vass, GenConfig(root, in_val), GenConfig(root, out_val))
    return PrecoveringGraph(base, assignment)


def random_finite_precovering(rng, max_nodes=3, n_counters=2, max_upd=2):
    """Like random_precovering but with finite extremal markings <= 3."""
    p = random_precovering(rng, max_nodes, n_counters, max_upd)
    in_val = {c: (rng.randint(0, 3) if v is OMEGA else v) for c, v in p.in_marking.items()}
    out_val = {c: (rng.randint(0, 3) if v is OMEGA else v) for c, v in p.out_marking.items()}
    base = InitVass(
        p.vass,
        GenConfig(p.root, in_val),
        GenConfig(p.root, out_val),
    )
    return PrecoveringGraph(base, p.assignment)


def two_graph_dmgts(bridge_label="", bridge_update=None, mu=1):
    """Two Dyck-copy graphs joined by a bridge; intermediate markings all-ω,
    outer markings zero: faithful by construction."""
    g1 = dyck_copy_graph(root="r1")
    g2 = dyck_copy_graph(root="r2")
    g1b = PrecoveringGraph(
        InitVass(g1.vass, GenConfig("r1", {"y1": 0}), GenConfig("r1", {"y1": OMEGA})),
        g1.assignment,
    )
    g2b = PrecoveringGraph(
        InitVass(g2.vass, GenConfig("r2", {"y1": OMEGA}), GenConfig("r2", {"y1": 0})),
        g2.assignment,
    )
    upd = {"y1": 0} if bridge_update is None else bridge_update
    mgts = Mgts([g1b, g2b], [Update(bridge_label, upd)])
    return Dmgts(mgts, mu, (), ("y1",), faithful=True)


def subject_even_a1():
    """L = (a1 a1)+ over Σ_1, no subject counters."""
    v = Vass(
        ["p", "q", "s"],
        dyck_alphabet(1),
        [],
        [
            Edge("p", inc_letter(1), {}, "q"),
            Edge("q", inc_letter(1), {}, "s"),
            Edge("s", inc_letter(1), {}, "q"),
        ],
    )
    return InitVass(v, GenConfig("p", {}), GenConfig("s", {}))


def subject_counter_gap():
    """L = words over Σ_1 with two more a1 than ā1, prefix-bounded by a counter."""
    v = Vass(
        ["q"],
        dyck_alphabet(1),
        ["k"],
        [
            Edge("q", inc_letter(1), {"k": 1}, "q"),
            Edge("q", dec_letter(1), {"k": -1}, "q"),
        ],
    )
    return InitVass(v, GenConfig("q", {"k": 0}), GenConfig("q", {"k": 2}))


def subject_dyck_a1():
    """L = Dyck · a1: disjoint from the Dyck language but approximating it."""
    v = Vass(
        ["q", "f"],
        dyck_alphabet(1),
        ["k"],
        [
            Edge("q", inc_letter(1), {"k": 1}, "q"),
            Edge("q", dec_letter(1), {"k": -1}, "q"),
            Edge("q", inc_letter(1), {"k": 1}, "f"),
        ],
    )
    return InitVass(v, GenConfig("q", {"k": 0}), GenConfig("f", {"k": 1}))


def subject_unbounded_dips():
    """L = a1^n ā1^m with m > n: inseparable from Dyck_1, since a DFA with N
    states cannot tell ā1^n from ā1^(n+N!). Along v = (-1) every word drifts,
    but its a1 prefix dips without bound."""
    v = Vass(
        ["p", "q"],
        dyck_alphabet(1),
        ["k"],
        [
            Edge("p", inc_letter(1), {"k": 1}, "p"),
            Edge("p", "", {"k": 0}, "q"),
            Edge("q", dec_letter(1), {"k": -1}, "q"),
            Edge("q", dec_letter(1), {"k": 0}, "q"),
        ],
    )
    return InitVass(v, GenConfig("p", {"k": 1}), GenConfig("q", {"k": 0}))


def subject_starts_with_abar1():
    """L = ā1 (a1 | ā1)* a1: every word starts with ā1, which separates L from
    Dyck_1. Its self-loops sit at a middle node."""
    v = Vass(
        ["p", "q", "r"],
        dyck_alphabet(1),
        [],
        [
            Edge("p", dec_letter(1), {}, "q"),
            Edge("q", inc_letter(1), {}, "q"),
            Edge("q", dec_letter(1), {}, "q"),
            Edge("q", inc_letter(1), {}, "r"),
        ],
    )
    return InitVass(v, GenConfig("p", {}), GenConfig("r", {}))


def strip_words(words):
    return {tuple(a for a, _ in w) for w in words}
