"""`model.search_run` and `model.edge_walks` against the walkers they replaced.

`search_oracle` holds the former `oracle_bfs`, `_pump_witness`,
`rackoff_cover` and the two bounded falsifiers verbatim. On random small VASS
the three searches must give the same status, word or path, and raise the
same error; the cap message of `rackoff_cover` is the one change. On the
curated DMGTS and their decomposition members the falsifiers must give the
same result. The `rackoff_cover` and the falsifiers under test are those of
`audits`; the `_pump_witness` under test is the package's.
"""

import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import audits
import search_oracle
from audits import consistent_specialization_falsify, faithfulness_falsify, rackoff_cover
from vasslab.driver import oracle_bfs
from vasslab.decomposition import _set_markings
from vasslab.errors import VassLabError
from vasslab.mgts import Mgts, PrecoveringGraph
from vasslab.model import EPSILON, Edge, GenConfig, InitVass, Run, Vass
from vasslab import structure
from vasslab.structure import _pump_witness
from vasslab.values import OMEGA

from test_acceptance import suite_results
from test_side_language_oracle import dmgts


def outcome(f, *args):
    """The result of f(*args), or its error with any state cap blanked."""
    try:
        return f(*args)
    except VassLabError as exc:
        return type(exc), re.sub(r".*state cap (\d+) exceeded", r"cap \1", str(exc))


@st.composite
def init_vass(draw):
    """1-3 nodes, 0-2 counters with updates in [-2, 2], letters a and b and ε
    edges, finite or ω extremal values."""
    nodes = [f"n{j}" for j in range(draw(st.integers(1, 3)))]
    counters = [f"c{i}" for i in range(draw(st.integers(0, 2)))]
    edges = [Edge(draw(st.sampled_from(nodes)), draw(st.sampled_from(("a", "b", EPSILON))),
                  {c: draw(st.integers(-2, 2)) for c in counters}, draw(st.sampled_from(nodes)))
             for _ in range(draw(st.integers(1, 6)))]
    value = st.one_of(st.integers(0, 3), st.just(OMEGA))

    def config():
        return GenConfig(draw(st.sampled_from(nodes)), {c: draw(value) for c in counters})

    return InitVass(Vass(nodes, ("a", "b"), counters, edges), config(), config())


def rooted(iv):
    """The VASS as a graph rooted at its initial node, entered with the
    initial valuation; the searches read nothing else of a precovering graph."""
    return PrecoveringGraph(InitVass(iv.vass, iv.init, iv.init), {})


def finite_start(iv, value=1):
    """iv with each ω initial value replaced by `value`."""
    start = {c: (value if v is OMEGA else v) for c, v in iv.init.valuation.items()}
    return InitVass(iv.vass, GenConfig(iv.init.node, start), iv.final)


@settings(max_examples=500)
@given(init_vass(), st.integers(0, 6), st.integers(0, 8), st.sampled_from([0, 1, 1, 1]))
def test_bfs_matches_oracle(iv, counter_cap, length_cap, finite):
    # an ω initial value is an error for both; most draws replace it
    if finite:
        iv = finite_start(iv)
    assert outcome(oracle_bfs, iv, counter_cap, length_cap) == outcome(
        search_oracle.oracle_bfs, iv, counter_cap, length_cap)


@settings(max_examples=300, deadline=None)
@given(init_vass(), st.data())
def test_pump_witness_matches_oracle(iv, data):
    counters = iv.vass.counters
    pump = data.draw(st.lists(st.sampled_from(counters), min_size=1, unique=True)
                     if counters else st.just([]))
    if not pump:
        return
    p = rooted(iv)
    # the caps differ in kind (the oracle counts generated successors, the
    # search counts states) and agree only where neither binds, as at 3000 here
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structure, "WITNESS_CAP", 3000)
        assert outcome(_pump_witness, p, sorted(pump)) == outcome(
            search_oracle._pump_witness, p, sorted(pump), 3000)


@settings(max_examples=300, deadline=None)
@given(init_vass(), st.data())
def test_rackoff_cover_matches_oracle(iv, data):
    iv = finite_start(iv, 2)
    p = rooted(iv)
    # the cover runs to the end node of `run`: a random walk of 0-3 edges
    walk, node = [], iv.init.node
    for _ in range(data.draw(st.integers(0, 3))):
        out = iv.vass.out_edges(node)
        if not out:
            break
        i, e = data.draw(st.sampled_from(out))
        walk.append(i)
        node = e.dst
    run = Run(iv.init, walk)
    counters = iv.vass.counters
    jprime = data.draw(st.lists(st.sampled_from(counters), min_size=1, unique=True)
                       if counters else st.just([]))
    C = data.draw(st.integers(0, 4))
    state_cap = data.draw(st.one_of(st.integers(0, 6), st.just(500)))
    with mock.patch.object(audits, "WITNESS_CAP", state_cap):
        got = outcome(rackoff_cover, p, run, jprime, C)
    assert got == outcome(search_oracle.rackoff_cover, p, run, jprime, C, state_cap)


def curated_and_members():
    for dm, res in suite_results().values():
        yield dm
        yield from res.perfect
        yield from (d.dmgts for d in res.decided)


@pytest.mark.parametrize("caps", [(4, 3), (6, 2)])
def test_faithfulness_falsify_matches_oracle(caps):
    for dm in curated_and_members():
        assert outcome(faithfulness_falsify, dm, caps[0]) == outcome(
            search_oracle.faithfulness_falsify, dm, *caps)


def test_consistent_specialization_falsify_matches_oracle():
    dms = list(curated_and_members())
    single = [dm for dm in dms if len(dm.graphs) == 1]
    for n1 in dms:
        for n2 in single:
            if (n1.mu, n1.y_counters, n1.mgts.counters) == (n2.mu, n2.y_counters,
                                                             n2.mgts.counters):
                assert outcome(consistent_specialization_falsify, n1, n2, 3, 3) == outcome(
                    search_oracle.consistent_specialization_falsify, n1, n2, 3, 3)


@settings(max_examples=300, deadline=None)
@given(dmgts(), st.integers(0, 4), st.integers(1, 3))
def test_falsifiers_match_oracle_on_random_dmgts(dm, run_len, value_cap):
    last = len(dm.graphs) - 1
    zero = dm.with_mgts(_set_markings(dm.mgts, {(gi, io, c): 0 for c in dm.y_counters
                                                for gi, io in ((0, "in"), (last, "out"))}))
    assert outcome(faithfulness_falsify, zero, run_len) == outcome(
        search_oracle.faithfulness_falsify, zero, run_len, value_cap)
    n2 = dm.with_mgts(Mgts(dm.graphs[:1]))
    assert outcome(consistent_specialization_falsify, dm, n2, run_len, value_cap) == outcome(
        search_oracle.consistent_specialization_falsify, dm, n2, run_len, value_cap)
