import itertools
from math import factorial

import pytest

from vasslab.automata import Nfa, enumerate_words, run_word
from vasslab.chareq import build_char
from vasslab.errors import ArgumentError, StructuralError
from vasslab.mgts import Dmgts, LanguageCaps, Mgts, PrecoveringGraph, side_language_bounded
from vasslab.model import (
    Edge,
    GenConfig,
    InitVass,
    Vass,
    annotated_alphabet,
    dec_letter,
    dyck_alphabet,
    dyck_vas,
    inc_letter,
    parikh_of,
)
from vasslab.mgts import initial_dmgts
from vasslab.separator import (
    lambert_pump,
    lift_separator,
    modulo_automaton,
    rooted_loops,
)
from vasslab.solver import ilp_feasible
from vasslab.values import OMEGA

import audits
from audits import build_diff_rem, dfa_profile, find_z_pair, inseparability_witness, is_dyck_word
from conftest import dyck_copy_dmgts, dyck_copy_graph, graph_loops, make_rng, two_graph_dmgts

A1, AB1 = inc_letter(1), dec_letter(1)
CAPS = LanguageCaps(max_run_len=10, value_cap=24)


# -- the preciseness audit of a lifted separator ---------------------------------

def preciseness_falsify(nfa_sharp: Nfa, dmgts: Dmgts, max_len: int,
                        caps: LanguageCaps = LanguageCaps()):
    """A word w in L(nfa#) ∩ Dyck# with w outside the bounded Sol_Y, or None.
    Dyck# offers a and (a,#) wherever the Dyck language has a."""
    n = len(dmgts.y_counters)
    soly = side_language_bounded(dmgts, "y", max_len, "int", caps).words
    for w in sorted(enumerate_words(nfa_sharp, max_len), key=repr):
        plain = tuple(a for a, _ in w)
        if not is_dyck_word(plain, n):
            continue
        if w not in soly:
            return w
    return None


class TestModuloAutomaton:
    def test_mu_two_residues(self):
        dm = dyck_copy_dmgts(mu=2)
        a = modulo_automaton(dm)
        assert run_word(a, ((A1, False), (A1, False)))
        assert not run_word(a, ((A1, False),))

    def test_mu_one_control_flow(self):
        a = modulo_automaton(dyck_copy_dmgts())
        assert run_word(a, ((AB1, False), (A1, False)))  # Z-approximation: order-free

    def test_bridge_letters_carry_hash(self):
        dm = two_graph_dmgts(bridge_label=A1, bridge_update={"y1": 1})
        a = modulo_automaton(dm)
        hashes = {lab for _, lab, _ in a.transitions if lab is not None and lab[1]}
        assert hashes == {(A1, True)}

    def test_covers_bounded_sol_x(self):
        for dm in (dyck_copy_dmgts(), dyck_copy_dmgts(mu=2),
                   two_graph_dmgts(A1, {"y1": 1})):
            a = modulo_automaton(dm)
            solx = side_language_bounded(dm, "x", 5, "int", CAPS).words
            for w in solx:
                assert run_word(a, w), w


class TestPreciseness:
    def test_asharp_precise_on_faithful(self):
        dm = dyck_copy_dmgts()
        assert preciseness_falsify(modulo_automaton(dm), dm, 4, CAPS) is None

    def test_universal_imprecise_with_intermediate_marking(self):
        # pinned intermediate Y marking unreachable exactly: the universal
        # automaton accepts a Dyck# word outside Sol_Y
        from vasslab.mgts import PrecoveringGraph, Update

        g1 = graph_loops([], ["y1"], {"y1": 0}, {"y1": 1},
                         assignment={"r1": {"y1": OMEGA}}, alphabet=dyck_alphabet(1),
                         root="r1")
        g2 = graph_loops([(AB1, {"y1": -1})], ["y1"], {"y1": OMEGA}, {"y1": 0}, root="r2")
        dm = Dmgts(Mgts([g1, g2], [Update("", {"y1": 0})]), 1, (), ("y1",))
        universal = Nfa({"u"}, {("u", a, "u") for a in annotated_alphabet(1)},
                        {"u"}, {"u"}, annotated_alphabet(1))
        hit = preciseness_falsify(universal, dm, 4, CAPS)
        assert hit is not None

    def test_empty_nfa_precise(self):
        dm = dyck_copy_dmgts()
        empty = Nfa({"e"}, set(), {"e"}, set(), annotated_alphabet(1))
        assert preciseness_falsify(empty, dm, 6, CAPS) is None


class TestLift:
    def test_lift_covers_and_misses_dyck(self):
        # Sol_Y empty: universal Z-separator lifts to a separator of L_X from Dyck
        from vasslab.mgts import PrecoveringGraph, Update

        g1 = graph_loops([], ["y1"], {"y1": 0}, {"y1": 0},
                         assignment={"r1": {"y1": 0}}, alphabet=dyck_alphabet(1), root="r1")
        g2 = graph_loops([], ["y1"], {"y1": 0}, {"y1": 0},
                         assignment={"r2": {"y1": 0}}, alphabet=dyck_alphabet(1), root="r2")
        dm = Dmgts(Mgts([g1, g2], [Update(A1, {"y1": 1})]), 1, (), ("y1",), faithful=True)
        assert side_language_bounded(dm, "y", 6, "int", CAPS).words == frozenset()
        universal = Nfa({"u"}, {("u", a, "u") for a in annotated_alphabet(1)},
                        {"u"}, {"u"}, annotated_alphabet(1))
        lifted = lift_separator(universal, dm)
        lx = side_language_bounded(dm, "x", 6, "nat", CAPS).words
        for w in lx:
            assert run_word(lifted, tuple(a for a, _ in w))
        for w in enumerate_words(lifted, 6):
            assert not is_dyck_word(w, 1)

    def test_lift_preserves_sol_x_coverage(self):
        dm = dyck_copy_dmgts(mu=2)
        universal = Nfa({"u"}, {("u", a, "u") for a in annotated_alphabet(1)},
                        {"u"}, {"u"}, annotated_alphabet(1))
        lifted = lift_separator(universal, dm)
        for w in side_language_bounded(dm, "x", 4, "int", CAPS).words:
            assert run_word(lifted, tuple(a for a, _ in w))

    def test_lift_refuses_a_foreign_alphabet(self):
        # the Z-separator must read the annotated Σ_n of the DMGTS: a plain or
        # wider alphabet is an error of the caller, not re-declared away
        dm = dyck_copy_dmgts()
        for alphabet in (dyck_alphabet(1), annotated_alphabet(2)):
            universal = Nfa({"u"}, {("u", a, "u") for a in alphabet}, {"u"}, {"u"}, alphabet)
            empty = Nfa({"e"}, set(), {"e"}, set(), alphabet)
            for zsep in (universal, empty):
                with pytest.raises(StructuralError):
                    lift_separator(zsep, dm)


class TestLambertPump:
    def test_dyck_copy(self):
        dm = dyck_copy_dmgts()
        sol = ilp_feasible(build_char(dm, "full").system)
        run = lambert_pump(dm, sol, k_cap=64)
        iv, _ = dm.mgts.combined()
        final = run.final_config(iv.vass)
        assert final.valuation["y1"] == 0

    def test_omega_out_exit_positive(self):
        g = dyck_copy_graph(out_y=OMEGA)
        mgts = Mgts([g])
        sol = ilp_feasible(build_char(mgts, "full").system)
        run = lambert_pump(mgts, sol, k_cap=64)
        iv, _ = mgts.combined()
        assert run.final_config(iv.vass).valuation["y1"] >= 1

    def test_zero_solution_trivial_covers(self):
        dm = dyck_copy_dmgts()
        cs = build_char(dm, "full")
        zero = {v: 0 for v in cs.system.vars}
        run = lambert_pump(dm, zero, k_cap=64)
        assert len(run.edge_seq) > 0  # u^k w^k d^k still runs

    def test_two_graph_pump(self):
        dm = two_graph_dmgts()
        sol = ilp_feasible(build_char(dm, "full").system)
        run = lambert_pump(dm, sol, k_cap=64)
        from vasslab.mgts import intermediate_accepts, side_gates

        gates = side_gates(dm, "full")
        assert intermediate_accepts(dm.mgts, run, gates, frozenset(gates))


class TestDiffRem:
    def graph(self):
        return dyck_copy_graph()

    def test_formula_instantiation(self):
        g = self.graph()
        s_x = {0: 1, 1: 1}
        s_y = {0: 2, 1: 2}
        dr = build_diff_rem(g, s_x, s_y, (), (), 1, 2)
        assert dr.w_x == dr.diff * 1 + dr.rem
        assert dr.w_y == dr.diff * (1 + 2 * factorial(1)) + dr.rem

    def test_parikh_identity(self):
        g = self.graph()
        dr = build_diff_rem(g, {0: 1, 1: 1}, {0: 2, 1: 2}, (), (), 2, 3)
        got = parikh_of(dr.u + dr.d + dr.w_x)
        want = {ei: 3 * factorial(2) * 1 for ei in (0, 1)}
        assert got == want

    def test_profiles_match(self):
        rng = make_rng(31)
        g = self.graph()
        labels = [g.vass.edges[i].label for i in range(2)]
        for _ in range(25):
            k = rng.randint(1, 3)
            states = [f"s{i}" for i in range(k)]
            trans = set()
            for s in states:
                for a in dyck_alphabet(1):
                    trans.add((s, a, rng.choice(states)))
            dfa = Nfa(states, trans, {states[0]}, set(), dyck_alphabet(1))
            extra = rng.randint(1, 2)
            s_x = {0: 1 + rng.randint(0, 2), 1: 1 + rng.randint(0, 2)}
            s_x[1] = s_x[0]  # Kirchhoff trivial here; keep counts balanced? loops: free
            s_y = {i: s_x[i] + extra for i in s_x}
            c = 1
            while True:
                try:
                    dr = build_diff_rem(g, s_x, s_y, (), (), k, c)
                    break
                except ArgumentError:
                    c += 1
            wx = tuple(g.vass.edges[i].label for i in dr.w_x)
            wy = tuple(g.vass.edges[i].label for i in dr.w_y)
            assert dfa_profile(dfa, wx) == dfa_profile(dfa, wy)

    def test_rescale_required(self):
        g = self.graph()
        with pytest.raises(ArgumentError):
            build_diff_rem(g, {0: 2, 1: 2}, {0: 2, 1: 2}, (), (), 1, 1)


class TestWitness:
    def accept_all_dfa(self):
        return Nfa({"s"}, {("s", a, "s") for a in dyck_alphabet(1)},
                   {"s"}, {"s"}, dyck_alphabet(1))

    def test_dyck_copy_witness(self):
        dm = initial_dmgts(dyck_vas(1))
        dfa = self.accept_all_dfa()
        w = inseparability_witness(dm, dfa)
        assert is_dyck_word(w.o_y, 1)
        assert dfa_profile(dfa, w.o_x) == dfa_profile(dfa, w.o_y)
        # verified memberships by construction; o_x must be a subject word
        from vasslab.model import language_bounded

        d1 = dyck_vas(1)
        if len(w.o_x) <= 8:
            assert w.o_x in language_bounded(d1, 8, max_run_len=10, value_cap=12)

    def test_parity_dfa_witness(self):
        # DFA counting a1 mod 2; both sides realize even counts
        dm = initial_dmgts(dyck_vas(1))
        states = {"e", "o"}
        trans = {("e", A1, "o"), ("o", A1, "e"), ("e", AB1, "e"), ("o", AB1, "o")}
        dfa = Nfa(states, trans, {"e"}, {"e"}, dyck_alphabet(1))
        w = inseparability_witness(dm, dfa)
        assert dfa_profile(dfa, w.o_x) == dfa_profile(dfa, w.o_y)

    def test_empty_language_dfa_fast_path(self):
        dm = initial_dmgts(dyck_vas(1))
        dfa = Nfa({"s"}, {("s", a, "s") for a in dyck_alphabet(1)},
                  {"s"}, set(), dyck_alphabet(1))
        w = inseparability_witness(dm, dfa)
        assert w.data.get("short")

    def test_find_z_pair_trivial(self, monkeypatch):
        monkeypatch.setattr(audits, "LOOP_LEN", 2)
        dm = initial_dmgts(dyck_vas(1))
        pair = find_z_pair(dm, self.accept_all_dfa())
        assert pair is not None


def test_rooted_loops_include_empty():
    g = dyck_copy_graph()
    loops = rooted_loops(g, 2)
    assert () in loops and (0, 1) in loops


def test_rooted_loops_sorted_and_complete():
    # one node: every edge sequence is a rooted loop
    g = dyck_copy_graph()
    for max_len in (2, 4, 6):
        want = sorted(seq for k in range(max_len + 1) for seq in itertools.product((0, 1), repeat=k))
        assert rooted_loops(g, max_len) == want
    # two nodes: only the even sequences alternating p -> q -> p return
    two = PrecoveringGraph(
        InitVass(Vass(["p", "q"], dyck_alphabet(1), ["y1"],
                      [Edge("p", inc_letter(1), {"y1": 1}, "q"),
                       Edge("q", dec_letter(1), {"y1": -1}, "p")]),
                 GenConfig("p", {"y1": 0}), GenConfig("p", {"y1": 0})),
        {q: {"y1": OMEGA} for q in ("p", "q")})
    assert rooted_loops(two, 5) == [(), (0, 1), (0, 1, 0, 1)]


def test_lifted_separators_precise_on_suite():
    # whenever the oracle certifies a separator, its product with the modulo
    # automaton admits no Dyck# word outside the bounded Dyck-side language
    import sys

    sys.path.insert(0, "tests")
    from test_acceptance import curated_suite
    from vasslab.automata import product
    from vasslab.decomposition import decompose
    from vasslab.zsep import z_separability

    checked = 0
    for name, dm in curated_suite():
        res = decompose(dm)
        for member in res.perfect:
            verdict = z_separability(member)
            if verdict.kind != "separable":
                continue
            asharp = modulo_automaton(member)
            zsep = verdict.nfa
            if zsep.alphabet != asharp.alphabet:
                zsep = Nfa(zsep.states, zsep.transitions, zsep.initial, zsep.final,
                           asharp.alphabet)
            lifted_sharp = product(zsep, asharp)
            assert preciseness_falsify(lifted_sharp, member, 4, CAPS) is None, name
            checked += 1
        for d in res.decided:
            if d.certificate != "y-infeasible":
                continue
            # the decided member's separator is its bare modulo automaton
            assert preciseness_falsify(modulo_automaton(d.dmgts), d.dmgts, 4, CAPS) is None, name
            checked += 1
    assert checked >= 3
