import pytest

from vasslab.chareq import (
    CharSystem,
    build_char,
    edge_var,
    full_support_solution,
    homogenize,
    io_var,
    support,
)
from vasslab.errors import ArgumentError
from vasslab.mgts import Dmgts, Mgts, Update, intermediate_accepts, side_gates
from vasslab.model import GenConfig, Run, dec_letter, edge_walks, inc_letter
from vasslab import solver
from vasslab.solver import UNBOUNDED, enumerate_var_values, ilp_feasible
from vasslab.values import OMEGA, is_omega

from conftest import dyck_copy_graph, graph_loops, make_rng, random_finite_precovering

A1, AB1 = inc_letter(1), dec_letter(1)


# -- the perfectness side-condition and the run-induced assignment --------------

def justifies_unboundedness(cs: CharSystem, gi: int, zprime, sup=None) -> bool:
    """True iff the support contains the entry variables of ω-in counters in
    zprime, the exit variables of ω-out counters in zprime, and every edge
    variable of graph gi (the edge condition is never vacuous)."""
    mgts = cs.mgts
    if not 0 <= gi < len(mgts.graphs):
        raise ArgumentError(f"no precovering graph {gi}")
    if sup is None:
        sup = support(cs)
    g = mgts.graphs[gi]
    for c in zprime:
        if is_omega(g.in_marking[c]) and io_var(gi, "in", c) not in sup:
            return False
        if is_omega(g.out_marking[c]) and io_var(gi, "out", c) not in sup:
            return False
    return all(edge_var(gi, ei) in sup for ei in range(len(g.vass.edges)))


def run_assignment(mgts: Mgts, run) -> dict:
    """The variable assignment that a run through every graph of the MGTS
    induces, read off its `intermediate_accepts` visits with no gate (for
    soundness tests)."""
    visits = intermediate_accepts(mgts, run, {}, frozenset())
    if visits is None:
        raise ArgumentError("the run does not pass through every graph at its root")
    _, origins = mgts.combined()
    assignment = {}
    for gi, (entry, seq, exit_) in enumerate(visits):
        counts = {}
        for i in seq:
            counts[i] = counts.get(i, 0) + 1
        for ei in range(len(mgts.graphs[gi].vass.edges)):
            assignment[edge_var(gi, ei)] = 0
        for i, k in counts.items():
            kind, g_of, ei = origins[i]
            assignment[edge_var(g_of, ei)] = k
        for c in mgts.counters:
            assignment[io_var(gi, "in", c)] = entry[c]
            assignment[io_var(gi, "out", c)] = exit_[c]
    return assignment


def plus_loop_graph(in_v, out_v):
    return graph_loops([(A1, {"y1": 1})], ["y1"], {"y1": in_v}, {"y1": out_v})


class TestBuildChar:
    def test_unique_minimal_solution(self):
        cs = build_char(Mgts([plus_loop_graph(0, 2)]))
        sol = ilp_feasible(cs.system)
        # exhaustive oracle: x_loop = 2 is forced
        assert sol[edge_var(0, 0)] == 2
        assert enumerate_var_values(cs.system, edge_var(0, 0)) == {2}

    def test_zero_forced(self):
        cs = build_char(Mgts([plus_loop_graph(0, 0)]))
        assert enumerate_var_values(cs.system, edge_var(0, 0)) == {0}

    def test_y_side_modulo(self, monkeypatch):
        g = graph_loops([(A1, {"y1": 1})], ["y1"], {"y1": 0}, {"y1": 1})
        dm = Dmgts(Mgts([g]), 2, (), ("y1",), faithful=False)
        cs = build_char(dm, "x")  # X side tracks Y modulo mu
        monkeypatch.setattr(solver, "VALUE_RANGE_CAP", 64)
        vals = enumerate_var_values(cs.system, edge_var(0, 0))
        if vals is not UNBOUNDED:
            assert all(v % 2 == 1 for v in vals)
        else:
            # unbounded: exits are free modulo 2; check small odd counts appear
            for v in (1, 3, 5):
                assert ilp_feasible(cs.system.with_fixed(edge_var(0, 0), v)) is not None
            assert ilp_feasible(cs.system.with_fixed(edge_var(0, 0), 2)) is None

    def test_bridge_equality(self):
        from vasslab.mgts import Update

        g1 = dyck_copy_graph(root="r1")
        g2 = dyck_copy_graph(root="r2")
        mgts = Mgts([g1, g2], [Update(A1, {"y1": 1})])
        cs = build_char(mgts)
        sol = ilp_feasible(cs.system)
        assert sol is None  # 0-out then +1 bridge cannot reach 0-in of graph 2... it can: graph2 in=0
        # actually the bridge forces enter2 = exit1 + 1 with both pinned to 0: infeasible


class TestHomogenize:
    def test_fixed_values_zeroed(self):
        cs = build_char(Mgts([plus_loop_graph(1, 2)]))
        hom = homogenize(cs)
        assert hom.system.fixed[io_var(0, "in", "y1")] == 0
        assert hom.system.fixed[io_var(0, "out", "y1")] == 0

    def test_kirchhoff_rows_unchanged(self):
        cs = build_char(Mgts([dyck_copy_graph()]))
        hom = homogenize(cs)
        assert cs.system.eqs == hom.system.eqs  # marking/Kirchhoff rows are homogeneous here

    def test_congruence_residues_zeroed(self):
        g = graph_loops([(A1, {"y1": 1})], ["y1"], {"y1": 0}, {"y1": 1})
        dm = Dmgts(Mgts([g]), 2, (), ("y1",), faithful=False)
        hom = homogenize(build_char(dm, "x"))
        assert all(r == 0 for _, r, _ in hom.system.congruences)

    def test_omega_pattern_preserved(self):
        g = plus_loop_graph(0, OMEGA)
        hom = homogenize(build_char(Mgts([g])))
        assert io_var(0, "out", "y1") not in hom.system.fixed
        assert io_var(0, "in", "y1") in hom.system.fixed


class TestSupport:
    def test_two_loops_in_support(self):
        cs = build_char(Mgts([dyck_copy_graph()]))
        sup = support(cs)
        assert edge_var(0, 0) in sup and edge_var(0, 1) in sup

    def test_plus_loop_not_in_support(self):
        cs = build_char(Mgts([plus_loop_graph(0, 0)]))
        assert edge_var(0, 0) not in support(cs)

    def test_omega_entry_fed_by_loop(self):
        g = plus_loop_graph(0, OMEGA)
        sup = support(build_char(Mgts([g])))
        assert io_var(0, "out", "y1") in sup

    def test_support_matches_unbounded_value_range(self, monkeypatch):
        # cross-check with enumerate_var_values on feasible systems
        monkeypatch.setattr(solver, "VALUE_RANGE_CAP", 400)
        rng = make_rng(21)
        checked = 0
        for _ in range(12):
            p = random_finite_precovering(rng, max_nodes=2, n_counters=2, max_upd=1)
            cs = build_char(Mgts([p]))
            if ilp_feasible(cs.system) is None:
                continue
            sup = support(cs)
            for v in cs.system.vars:
                vals = enumerate_var_values(cs.system, v)
                assert (vals is UNBOUNDED) == (v in sup), (v, vals, v in sup)
                checked += 1
        assert checked > 0


class TestFullSupport:
    def test_two_loop_witness(self):
        cs = build_char(Mgts([dyck_copy_graph()]))
        sol = full_support_solution(cs)
        assert sol[edge_var(0, 0)] >= 1 and sol[edge_var(0, 1)] >= 1

    def test_empty_support_zero(self):
        cs = build_char(Mgts([plus_loop_graph(0, 0)]))
        sol = full_support_solution(cs)
        assert sol[edge_var(0, 0)] == 0

    def test_self_check(self):
        # the Solution constructor already verified exact satisfaction
        cs = build_char(Mgts([dyck_copy_graph()]))
        sol = full_support_solution(cs)
        assert sol.system.satisfied_by(sol.assignment)

    def test_closed_under_addition(self):
        cs = build_char(Mgts([dyck_copy_graph()]))
        hom = homogenize(cs)
        s1 = full_support_solution(cs)
        summed = {v: 2 * s1[v] for v in s1.assignment}
        assert hom.system.satisfied_by(summed)


class TestJustifies:
    def test_two_loops(self):
        cs = build_char(Mgts([dyck_copy_graph()]))
        assert justifies_unboundedness(cs, 0, ["y1"])

    def test_minus_loop_fails_on_edges(self):
        g = graph_loops([(AB1, {"y1": -1})], ["y1"], {"y1": 0}, {"y1": 0})
        cs = build_char(Mgts([g]))
        assert not justifies_unboundedness(cs, 0, ["y1"])

    def test_edge_condition_not_vacuous(self):
        g = graph_loops([(AB1, {"y1": -1})], ["y1"], {"y1": 0}, {"y1": 0})
        cs = build_char(Mgts([g]))
        assert not justifies_unboundedness(cs, 0, [])


def test_runs_induce_solutions(rng):
    # every intermediate-accepting Z-run satisfies the full characteristic system
    checked = 0
    for _ in range(25):
        p = random_finite_precovering(rng, max_nodes=2, n_counters=2, max_upd=1)
        mgts = Mgts([p])
        iv, _ = mgts.combined()
        cs = build_char(mgts)
        for trial in range(30):
            seq = []
            node = iv.init.node
            for _ in range(rng.randint(0, 8)):
                outs = iv.vass.out_edges(node)
                if not outs:
                    break
                i, e = rng.choice(outs)
                seq.append(i)
                node = e.dst
            run = Run(GenConfig(iv.init.node, dict(iv.init.valuation)), tuple(seq))
            if intermediate_accepts(mgts, run, side_gates(mgts, "full"), frozenset()):
                assignment = run_assignment(mgts, run)
                assert cs.system.satisfied_by(assignment)
                checked += 1
    assert checked > 5


def split_two_graph_dmgts():
    """Two graphs, X = {x1} and Y = {y1}, mu = 2: finite markings on both
    sides, an ω X marking between the graphs, and a visible bridge."""
    g1 = graph_loops([(A1, {"x1": 1, "y1": 1}), (AB1, {"y1": -1})], ["x1", "y1"],
                     {"x1": 0, "y1": 0}, {"x1": OMEGA, "y1": 1}, root="r1")
    g2 = graph_loops([(AB1, {"x1": -1, "y1": -1}), (A1, {"x1": 2, "y1": 1})], ["x1", "y1"],
                     {"x1": OMEGA, "y1": 2}, {"x1": 1, "y1": 0}, root="r2")
    return Dmgts(Mgts([g1, g2], [Update(A1, {"x1": -1, "y1": 1})]), 2, ("x1",), ("y1",))


@pytest.mark.parametrize("kind", ["nat", "int"])
@pytest.mark.parametrize("side", ["x", "y"])
def test_side_runs_induce_solutions(side, kind):
    # the run check and the characteristic system read the same gates: every
    # bounded run accepted under side_gates satisfies the side's system
    dm = split_two_graph_dmgts()
    iv, _ = dm.mgts.combined()
    gates = side_gates(dm, side)
    nonneg = frozenset(gates) if kind == "nat" else frozenset()
    system = build_char(dm, side).system
    accepted = 0
    for x1 in range(3):
        for y1 in range(3):
            start = GenConfig(iv.init.node, {"x1": x1, "y1": y1})
            for _, seq in edge_walks(iv.vass.successors(), iv.init.node, 6):
                run = Run(start, seq)
                if intermediate_accepts(dm.mgts, run, gates, nonneg):
                    assert system.satisfied_by(run_assignment(dm.mgts, run)), (start, seq)
                    accepted += 1
    assert accepted >= 3
