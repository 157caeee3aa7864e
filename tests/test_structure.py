from fractions import Fraction
from math import gcd, lcm

import pytest

from vasslab.errors import ArgumentError, StructuralError
from vasslab.lattice import hermite
from vasslab.mgts import Mgts, PrecoveringGraph, Update, is_strongly_connected
from vasslab.model import (
    Edge,
    GenConfig,
    InitVass,
    Run,
    Vass,
    dec_letter,
    dyck_alphabet,
    inc_letter,
)
from vasslab.structure import (
    _potentials,
    covering_sequences,
    cycle_space_dim,
    down_covering,
    fixed_assignment,
    fixed_counters,
    karp_miller,
    rackoff_bound,
    rank,
    rank_less,
    realization,
)
from vasslab.values import OMEGA

from audits import rackoff_cover, simulate
from conftest import dyck_copy_graph, graph_loops, random_precovering
from vasslab.model import parikh_of

A1, AB1 = inc_letter(1), dec_letter(1)


class TestCycleSpace:
    def test_plus_minus_is_one(self):
        assert cycle_space_dim(dyck_copy_graph()) == 1

    def test_single_loop_one_no_edges_zero(self):
        assert cycle_space_dim(graph_loops([(A1, {"y1": 1})], ["y1"], {"y1": 0}, {"y1": 0})) == 1
        g = graph_loops([], ["y1"], {"y1": 0}, {"y1": 0},
                        assignment={"r": {"y1": 0}}, alphabet=dyck_alphabet(1))
        assert cycle_space_dim(g) == 0

    def test_two_independent_loops(self):
        g = graph_loops(
            [(A1, {"c1": 1, "c2": 0}), (inc_letter(2), {"c1": 0, "c2": 1})],
            ["c1", "c2"], {}, {}, alphabet=dyck_alphabet(2),
        )
        assert cycle_space_dim(g) == 2

    def test_not_strongly_connected(self):
        v = Vass(["p", "q"], ("a",), ["c"], [Edge("p", "a", {"c": 0}, "q")])
        base = InitVass(v, GenConfig("p", {"c": 0}), GenConfig("p", {"c": 0}))
        p = PrecoveringGraph(base, {"p": {"c": OMEGA}, "q": {"c": OMEGA}})
        with pytest.raises(StructuralError):
            cycle_space_dim(p)


class TestRank:
    def test_formula(self):
        # entry at index d - i is |E| + |Ω(in)| + |Ω(P)| + |Ω(out)|
        g = dyck_copy_graph()  # 2 edges, Ω(P) = {y1}, finite markings, dim 1
        assert rank(Mgts([g])) == (3, 0)
        g0 = graph_loops(
            [(A1, {"y1": 0}), (AB1, {"y1": 0})], ["y1"], {"y1": 1}, {"y1": 1},
            assignment={"r": {"y1": 1}},
        )  # zero-effect cycles: dim 0, fully concrete
        assert rank(Mgts([g0])) == (0, 2)

    def test_concatenation_is_sum(self):
        g1, g2 = dyck_copy_graph(root="r1"), dyck_copy_graph(root="r2")
        m = Mgts([g1, g2], [Update("", {"y1": 0})])
        assert rank(m) == tuple(a + b for a, b in zip(rank(Mgts([g1])), rank(Mgts([g2]))))

    def test_removing_omega_entry_decreases(self):
        g_omega = dyck_copy_graph(out_y=0)
        g_conc = PrecoveringGraph(
            InitVass(g_omega.vass, g_omega.base.init, GenConfig("r", {"y1": 0})),
            g_omega.assignment,
        )
        higher = PrecoveringGraph(
            InitVass(g_omega.vass, g_omega.base.init, GenConfig("r", {"y1": OMEGA})),
            g_omega.assignment,
        )
        assert rank_less(rank(Mgts([g_conc])), rank(Mgts([higher])))

    def test_lexicographic_most_significant_first(self):
        assert rank_less((0, 99), (1, 0))


class TestCovering:
    def test_plus_loop_pumps(self):
        g = graph_loops([(A1, {"y1": 1})], ["y1"], {"y1": 0}, {"y1": 0})
        assert covering_sequences(g) == (0,)

    def test_minus_loop_cannot(self):
        g = graph_loops([(AB1, {"y1": -1})], ["y1"], {"y1": 0}, {"y1": 0})
        assert covering_sequences(g) is None

    def test_omega_in_counter_may_decrease(self):
        g = graph_loops(
            [(A1, {"c1": 1, "c2": -1})], ["c1", "c2"],
            {"c1": 0, "c2": OMEGA}, {"c1": 0, "c2": OMEGA},
        )
        assert covering_sequences(g) == (0,)

    def test_down_is_reverse_of_up_on_reverse(self):
        g = dyck_copy_graph()
        down = down_covering(g)
        up_rev = covering_sequences(g.reverse())
        assert down == tuple(reversed(up_rev))
        # and the down witness pumps the reversed graph up
        assert up_rev is not None

    def test_witness_verifies(self, rng):
        for _ in range(40):
            p = random_precovering(rng, max_nodes=3, n_counters=2, max_upd=2)
            sigma = covering_sequences(p)
            if sigma is None or sigma == ():
                continue
            pump = sorted(p.omega_counters - frozenset(
                c for c in p.vass.counters if p.in_marking[c] is OMEGA))
            seed = 40
            start = {c: (seed if p.in_marking[c] is OMEGA else p.in_marking[c])
                     for c in p.vass.counters}
            out = simulate(p.vass, GenConfig(p.root, start), sigma, frozenset(p.vass.counters))
            assert isinstance(out, Run)
            final = out.final_config(p.vass)
            assert final.node == p.root
            for c in pump:
                assert final.valuation[c] > start[c]


class TestFixedCounters:
    def test_pm_loop_not_fixed(self):
        assert "y1" not in fixed_counters(dyck_copy_graph())

    def test_untouched_counter_fixed(self):
        g = graph_loops([(A1, {"c1": 1, "c2": 0})], ["c1", "c2"],
                        {"c1": 0, "c2": 2}, {"c1": 0, "c2": 2},
                        assignment={"r": {"c1": OMEGA, "c2": 2}})
        assert "c2" in fixed_counters(g)
        assert fixed_assignment(g, "c2") == {"r": 2}

    def test_two_node_cycle_potential(self):
        v = Vass(["p", "q"], ("a",), ["j"],
                 [Edge("p", "a", {"j": 1}, "q"), Edge("q", "a", {"j": -1}, "p")])
        base = InitVass(v, GenConfig("p", {"j": 0}), GenConfig("p", {"j": 0}))
        g = PrecoveringGraph(base, {"p": {"j": OMEGA}, "q": {"j": OMEGA}})
        assert "j" in fixed_counters(g)
        assert fixed_assignment(g, "j") == {"p": 0, "q": 1}

    def test_not_fixed_is_argument_error(self):
        with pytest.raises(ArgumentError):
            fixed_assignment(dyck_copy_graph(), "y1")


class TestRealization:
    def two_cycle(self):
        return Vass(["p", "q"], ("a",), ["c"],
                    [Edge("p", "a", {"c": 0}, "q"), Edge("q", "a", {"c": 0}, "p")])

    def test_simple(self):
        assert realization(self.two_cycle(), {0: 1, 1: 1}, "p") == (0, 1)

    def test_double(self):
        assert realization(self.two_cycle(), {0: 2, 1: 2}, "p") == (0, 1, 0, 1)

    def test_self_loop(self):
        v = Vass(["p"], ("a",), ["c"], [Edge("p", "a", {"c": 0}, "p")])
        assert realization(v, {0: 3}, "p") == (0, 0, 0)

    def test_parikh_and_closure(self, rng):
        v = Vass(
            ["p", "q"], ("a",), ["c"],
            [Edge("p", "a", {"c": 1}, "q"), Edge("q", "a", {"c": -1}, "p"),
             Edge("p", "a", {"c": 0}, "p")],
        )
        for _ in range(20):
            k1, k2 = rng.randint(1, 3), rng.randint(0, 3)
            parikh = {0: k1, 1: k1, 2: k2}
            cyc = realization(v, parikh, "p")
            assert parikh_of(cyc) == {i: k for i, k in parikh.items() if k}
            node = "p"
            for i in cyc:
                assert v.edges[i].src == node
                node = v.edges[i].dst
            assert node == "p"

    def test_unbalanced_rejected(self):
        with pytest.raises(ArgumentError):
            realization(self.two_cycle(), {0: 2, 1: 1}, "p")

    def test_disconnected_rejected(self):
        v = Vass(["p", "q"], ("a",), ["c"],
                 [Edge("p", "a", {"c": 0}, "p"), Edge("q", "a", {"c": 0}, "q")])
        with pytest.raises(ArgumentError):
            realization(v, {0: 1, 1: 1}, "p")


class TestRackoff:
    def test_formula(self):
        v = Vass(["p", "q"], ("a",), ["j"],
                 [Edge("p", "a", {"j": 1}, "q"), Edge("q", "a", {"j": -1}, "p")])
        base = InitVass(v, GenConfig("p", {"j": 0}), GenConfig("p", {"j": 0}))
        g = PrecoveringGraph(base, {"p": {"j": OMEGA}, "q": {"j": OMEGA}})
        assert rackoff_bound(g, ["j"], C=2) == 16  # (2*1*2)^{2!}

    def test_empty_jprime(self):
        g = dyck_copy_graph()
        assert rackoff_bound(g, [], C=3) == 3  # (1*1*3)^{1!}

    def test_one_counter(self):
        g = dyck_copy_graph()
        assert rackoff_bound(g, ["y1"], C=2) == 4  # 2^(2!)

    def test_cover_pumps(self):
        g = graph_loops([(A1, {"y1": 1})], ["y1"], {"y1": 0}, {"y1": 0})
        run = Run(GenConfig("r", {"y1": 0}), ())
        cover = rackoff_cover(g, run, ["y1"], C=3)
        assert cover == (0, 0, 0)


def test_nested_pumping_found():
    # pumping the second counter needs the first one pumped up beforehand
    g = graph_loops(
        [(A1, {"c1": 1, "c2": 0}), (AB1, {"c1": -1, "c2": 1})],
        ["c1", "c2"], {"c1": 0, "c2": 0}, {"c1": 0, "c2": 0},
        alphabet=dyck_alphabet(1),
    )
    sigma = covering_sequences(g)
    assert sigma is not None and sigma != ()
    seed = 100
    start = {"c1": 0, "c2": 0}
    out = simulate(g.vass, GenConfig(g.root, start), sigma, frozenset(g.vass.counters))
    assert isinstance(out, Run)
    final = out.final_config(g.vass).valuation
    assert final["c1"] >= 1 and final["c2"] >= 1


def test_mutual_exclusion_not_pumpable():
    # each loop trades one counter for the other (the sum is invariant), so no
    # run raises both strictly even though each moves individually
    g = graph_loops(
        [(A1, {"c1": 1, "c2": -1}), (AB1, {"c1": -1, "c2": 1})],
        ["c1", "c2"], {"c1": 1, "c2": 1}, {"c1": 1, "c2": 1},
        alphabet=dyck_alphabet(1),
    )
    assert covering_sequences(g) is None


def test_karp_miller_accelerates():
    g = graph_loops([(A1, {"y1": 1})], ["y1"], {"y1": 0}, {"y1": 0})
    nodes = karp_miller(g.vass, g.root, g.in_marking)
    assert any(n.valuation == (OMEGA,) for n in nodes)


# -- the rational Kirchhoff-kernel reference --------------------------------------
# structure.py's cycle space as it was before the spanning-tree potential: an
# integer basis of the Kirchhoff flow kernel, from a reduced row echelon form
# over Q. It stays here for one round as the differential oracle of
# cycle_space_dim, fixed_counters and fixed_assignment (ROADMAP aim 3); delete
# it in the next change to this module.

def _rref(rows):
    """Reduced row echelon form in place; returns pivot column list."""
    rows = [list(map(Fraction, r)) for r in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def kernel_basis(rows, ncols):
    """A basis of {x : rows·x = 0} over Q with integer entries."""
    if not rows:
        rows = [[Fraction(0)] * ncols]
    rref, pivots = _rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            vec[pc] = -rref[ri][fc]
        denom = lcm(*(x.denominator for x in vec))
        basis.append([int(x * denom) for x in vec])
    return basis


def _kirchhoff_rows(vass):
    rows = []
    for q in vass.nodes:
        row = [0] * len(vass.edges)
        for i, e in enumerate(vass.edges):
            if e.dst == q:
                row[i] += 1
            if e.src == q:
                row[i] -= 1
        rows.append(row)
    return rows


def cycle_flows(p: PrecoveringGraph):
    """Integer basis of the Kirchhoff flow kernel of the graph."""
    if not is_strongly_connected(p.vass):
        raise StructuralError("cycle space needs a strongly connected graph")
    return kernel_basis(_kirchhoff_rows(p.vass), len(p.vass.edges))


def reference_effects(p: PrecoveringGraph) -> list:
    """The effect of every kernel basis flow, as a vector over the counters."""
    return [[sum(k * e.update[c] for k, e in zip(flow, p.vass.edges)) for c in p.vass.counters]
            for flow in cycle_flows(p)]


def check_against_reference(p: PrecoveringGraph):
    effects = reference_effects(p)
    assert cycle_space_dim(p) == (len(_rref(effects)[1]) if effects else 0)
    assert cycle_space_dim(p) == _rank(_potentials(p)[1])
    fixed = frozenset(c for i, c in enumerate(p.vass.counters)
                      if all(eff[i] == 0 for eff in effects))
    assert fixed_counters(p) == fixed
    for j in p.vass.counters:
        if j not in fixed or p.in_marking[j] is OMEGA:
            with pytest.raises(ArgumentError):
                fixed_assignment(p, j)
            continue
        # a fixed counter's potential is unique: in(j) at the root, and every
        # edge moves it by its update
        phi = fixed_assignment(p, j)
        assert set(phi) == set(p.vass.nodes) and phi[p.root] == p.in_marking[j]
        assert all(phi[e.dst] == phi[e.src] + e.update[j] for e in p.vass.edges)


def test_cycle_space_matches_kirchhoff_reference_on_random_graphs(rng):
    for _ in range(300):
        p = random_precovering(rng, max_nodes=3, n_counters=rng.randint(1, 3))
        check_against_reference(p)
        check_against_reference(p.reverse())


def test_cycle_space_matches_kirchhoff_reference_on_curated_suite_and_members():
    from test_acceptance import suite_results

    graphs = 0
    for dm, res in suite_results().values():
        for member in [dm, *res.perfect, *(d.dmgts for d in res.decided)]:
            for p in member.graphs:
                check_against_reference(p)
                check_against_reference(p.reverse())
                graphs += 1
    assert graphs == 38


# -- the rank as it was before `lattice` -------------------------------------------
# structure.py's fraction-free row elimination, verbatim. It stays here for one
# round as the differential oracle of the Hermite normal form rank (ROADMAP
# aim 3); delete it in the next change to `lattice`.

def _rank(rows) -> int:
    """The rank of integer vectors, by fraction-free elimination: each combined
    row is divided by its content."""
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    while rows:
        piv = rows.pop()
        c = next(i for i, x in enumerate(piv) if x)
        rank += 1
        reduced = []
        for row in rows:
            if row[c]:
                row = [piv[c] * x - row[c] * y for x, y in zip(row, piv)]
                g = gcd(*row)
                if not g:
                    continue
                row = [x // g for x in row]
            reduced.append(row)
        rows = reduced
    return rank


def test_hermite_rank_matches_row_elimination_and_rref(rng):
    for _ in range(500):
        m, n = rng.randint(0, 5), rng.randint(1, 4)
        rows = [[rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(n)] for _ in range(m)]
        r = len(hermite(rows, n).pivots)
        assert r == _rank(rows) == (len(_rref(rows)[1]) if rows else 0)
