"""The shared SCC-path unfolding against the three constructions it replaced.

`unfold_oracle` holds the former `dec_along`, `fold_to_mgts_list` and
`fold_nfa_to_dmgts_list` verbatim. On random small VASS, ε-free NFAs and
precovering graphs under a mod-counter observer, each new function must
return the same MGTS, field by field and in the same order, or hit the same
path cap.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import unfold_oracle
from vasslab import decomposition
from vasslab.automata import Nfa
from vasslab.decomposition import Observer, dec_along, decompose
from vasslab.errors import ResourceExhausted
from vasslab.mgts import PrecoveringGraph, fold_to_mgts_list, validate_precovering
from vasslab.model import Edge, GenConfig, InitVass, Vass, dyck_alphabet
from vasslab.semilinear import fold_nfa_to_dmgts_list
from vasslab.values import OMEGA

from test_acceptance import curated_suite

value = st.integers(-2, 2)
marking_value = st.one_of(st.integers(0, 2), st.just(OMEGA))
path_caps = st.sampled_from([1, 2, 3, 2000])


def snapshot(mgts):
    """Everything an MGTS holds, in its order."""
    return (
        [(g.vass.nodes, g.vass.alphabet, g.vass.counters,
          [e.key() for e in g.vass.edges], g.root,
          dict(g.in_marking), dict(g.out_marking), list(g.assignment.items()))
         for g in mgts.graphs],
        [(u.label, u.update) for u in mgts.bridges],
    )


def outcome(fn, *args, **kwargs):
    try:
        return [snapshot(m) for m in fn(*args, **kwargs)]
    except ResourceExhausted:
        return "path cap"


@st.composite
def vasses(draw):
    nodes = [f"q{i}" for i in range(draw(st.integers(1, 4)))]
    counters = [f"c{i}" for i in range(draw(st.integers(1, 2)))]
    alphabet = dyck_alphabet(1)
    edges = [
        Edge(draw(st.sampled_from(nodes)), draw(st.sampled_from(alphabet)),
             {c: draw(value) for c in counters}, draw(st.sampled_from(nodes)))
        for _ in range(draw(st.integers(0, 10)))
    ]
    vass = Vass(nodes, alphabet, counters, edges)

    def config():
        return GenConfig(draw(st.sampled_from(nodes)), {c: draw(marking_value) for c in counters})

    return InitVass(vass, config(), config())


@st.composite
def nfas(draw):
    n = draw(st.integers(1, 2))
    k = draw(st.integers(1, 4))
    states = draw(st.sampled_from([
        list(range(k)), [f"s{i}" for i in range(k)], [(i, i % 2) for i in range(k)],
    ]))
    transitions = draw(st.sets(
        st.tuples(st.sampled_from(states), st.sampled_from(dyck_alphabet(n)),
                  st.sampled_from(states)),
        max_size=10,
    ))
    initial = draw(st.sets(st.sampled_from(states), min_size=1, max_size=2))
    final = draw(st.sets(st.sampled_from(states), max_size=k))
    return Nfa(states, transitions, initial, final, dyck_alphabet(n)), n


@st.composite
def precovering_graphs(draw):
    """A strongly connected graph (a cycle through all nodes plus random
    edges); each counter is either ω-decorated with free updates or decorated
    by a node potential that fixes its updates."""
    nodes = [f"q{i}" for i in range(draw(st.integers(1, 4)))]
    counters = [f"c{i}" for i in range(draw(st.integers(1, 2)))]
    potential = {
        c: {q: draw(st.integers(0, 2)) for q in nodes} if draw(st.booleans()) else None
        for c in counters
    }
    pairs = list(zip(nodes, nodes[1:] + nodes[:1]))
    pairs += draw(st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)),
                           max_size=5))
    alphabet = dyck_alphabet(1)
    edges = []
    for src, dst in pairs:
        update = {c: (draw(value) if potential[c] is None else potential[c][dst] - potential[c][src])
                  for c in counters}
        edges.append(Edge(src, draw(st.sampled_from(alphabet)), update, dst))
    root = nodes[0]
    assignment = {q: {c: OMEGA if potential[c] is None else potential[c][q] for c in counters}
                  for q in nodes}

    def extremal():
        return {c: draw(marking_value) if potential[c] is None else potential[c][root]
                for c in counters}

    base = InitVass(Vass(nodes, alphabet, counters, edges),
                    GenConfig(root, extremal()), GenConfig(root, extremal()))
    g = PrecoveringGraph(base, assignment)
    assert validate_precovering(g) == []
    return g


@st.composite
def mod_observers(draw, g):
    """Tracks one counter modulo m; on some edges it may also keep its state."""
    c = draw(st.sampled_from(g.vass.counters))
    m = draw(st.integers(2, 3))
    stay = draw(st.sets(st.integers(0, len(g.vass.edges) - 1), max_size=2))

    def step(s, ei):
        nxt = (s + g.vass.edges[ei].update[c]) % m
        return (nxt, s) if ei in stay and nxt != s else (nxt,)

    start = 0 if g.in_marking[c] is OMEGA else g.in_marking[c] % m
    residues = draw(st.sets(st.integers(0, m - 1), min_size=1))
    finals = sorted(residues) if draw(st.booleans()) else (lambda s: s in residues)
    return Observer(initial=(start,), step=step), finals


@settings(max_examples=300)
@given(vasses(), path_caps)
def test_fold_to_mgts_list_matches_oracle(iv, path_cap):
    assert outcome(fold_to_mgts_list, iv, path_cap) == outcome(
        unfold_oracle.fold_to_mgts_list, iv, path_cap)


@settings(max_examples=300)
@given(nfas(), path_caps)
def test_fold_nfa_to_dmgts_list_matches_oracle(nfa_n, path_cap):
    nfa, n = nfa_n

    def fold(fn):
        try:
            return [(d.mu, d.x_counters, d.y_counters, d.faithful, snapshot(d.mgts))
                    for d in fn(nfa, n, path_cap)]
        except ResourceExhausted:
            return "path cap"

    assert fold(fold_nfa_to_dmgts_list) == fold(unfold_oracle.fold_nfa_to_dmgts_list)


@settings(max_examples=300)
@given(st.data(), path_caps)
def test_dec_along_matches_oracle(data, path_cap):
    g = data.draw(precovering_graphs())
    obs, finals = data.draw(mod_observers(g))
    assert outcome(dec_along, g, obs, finals, path_cap=path_cap) == outcome(
        unfold_oracle.dec_along, g, 1, obs, finals, path_cap=path_cap)


def test_curated_decompositions_unfold_as_the_oracle(monkeypatch):
    """Every DEC-along call of the curated suite's decompositions."""
    calls = []

    def both(p, obs, finals, state_cap=100000, path_cap=2000):
        new = dec_along(p, obs, finals, state_cap, path_cap)
        old = unfold_oracle.dec_along(p, 1, obs, finals, state_cap, path_cap)
        assert [snapshot(m) for m in new] == [snapshot(m) for m in old]
        calls.append(len(new))
        return new

    monkeypatch.setattr(decomposition, "dec_along", both)
    for _, dm in curated_suite():
        decompose(dm)
    assert calls
