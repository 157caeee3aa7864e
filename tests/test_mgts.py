import gc
import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

import vasslab.mgts as mgts_module
from vasslab.chareq import build_char, support
from vasslab.errors import ArgumentError, ResourceExhausted, StructuralError
from vasslab.mgts import (
    Dmgts,
    LanguageCaps,
    Mgts,
    MgtsContext,
    PrecoveringGraph,
    Update,
    canonical_key,
    dmgts_from_json,
    dmgts_to_json,
    fold_states,
    fold_to_mgts_list,
    initial_dmgts,
    initial_parts,
    intermediate_accepts,
    perfectness_diagnosis,
    side_gates,
    side_language_bounded,
    substitute,
    unfold_paths,
    validate_precovering,
)
from vasslab.model import (
    EPSILON,
    Edge,
    GenConfig,
    InitVass,
    Run,
    Vass,
    dec_letter,
    dyck_alphabet,
    dyck_vas,
    inc_letter,
    language_bounded,
)
from vasslab.solver import ilp_feasible
from vasslab.values import OMEGA

import audits
from audits import consistent_specialization_falsify, faithfulness_falsify, is_zero_reaching
from conftest import (
    dyck_copy_dmgts,
    dyck_copy_graph,
    graph_loops,
    strip_words,
    subject_starts_with_abar1,
    two_graph_dmgts,
)

A1, AB1 = inc_letter(1), dec_letter(1)
CAPS = LanguageCaps(max_run_len=10, value_cap=24)


def combined_index(mgts, origin) -> int:
    """The index in `mgts.combined()` of the edge with this origin."""
    _, origins = mgts.combined()
    return origins.index(origin)


def dmgts_word(run: Run, mgts: Mgts) -> tuple:
    """λ_#: edge labels, with bridge letters hash-annotated."""
    iv, origins = mgts.combined()
    word = []
    for i in run.edge_seq:
        e = iv.vass.edges[i]
        if e.label != EPSILON:
            word.append((e.label, origins[i][0] == "b"))
    return tuple(word)


class TestValidate:
    def test_dyck_lift_ok(self):
        assert validate_precovering(dyck_copy_graph()) == []

    def test_broken_coherence(self):
        g = dyck_copy_graph()
        bad = PrecoveringGraph(g.base, {"r": {"y1": 5}})
        assert any("incoherent" in v or "differ" in v for v in validate_precovering(bad))

    def test_not_strongly_connected(self):
        v = Vass(["p", "q"], ("a",), ["c"], [Edge("p", "a", {"c": 0}, "q")])
        base = InitVass(v, GenConfig("p", {"c": 0}), GenConfig("p", {"c": 0}))
        bad = PrecoveringGraph(base, {"p": {"c": OMEGA}, "q": {"c": OMEGA}})
        assert any("strongly connected" in v for v in validate_precovering(bad))


class TestIntermediateAccepts:
    def test_single_graph_reduces_to_acceptance(self):
        dm = dyck_copy_dmgts()
        run = Run(GenConfig("r", {"y1": 0}), (0, 1))
        assert intermediate_accepts(dm.mgts, run, {"y1": 0}, frozenset({"y1"}))

    def test_bridge_exit_value(self):
        # exit marking 1 while the run exits at 0
        g1 = graph_loops([(A1, {"y1": 1})], ["y1"], {"y1": 0}, {"y1": 1}, root="r1")
        g2 = graph_loops([(A1, {"y1": 1})], ["y1"], {"y1": 1}, {"y1": 1}, root="r2")
        mgts = Mgts([g1, g2], [Update(EPSILON, {"y1": 0})])
        bridge = combined_index(mgts, ("b", 0))
        bad = Run(GenConfig("r1", {"y1": 0}), (bridge,))
        assert not intermediate_accepts(mgts, bad, {"y1": 0}, frozenset())
        good = Run(GenConfig("r1", {"y1": 0}), (combined_index(mgts, ("g", 0, 0)), bridge))
        assert intermediate_accepts(mgts, good, {"y1": 0}, frozenset())

    def test_modulo_exit(self):
        g = graph_loops([(A1, {"y1": 1})], ["y1"], {"y1": 0}, {"y1": 2}, root="r")
        mgts = Mgts([g])
        run = Run(GenConfig("r", {"y1": 0}), (0,) * 5)
        assert intermediate_accepts(mgts, run, {"y1": 3}, frozenset())
        assert not intermediate_accepts(mgts, run, {"y1": 0}, frozenset())

    def test_unknown_edge_reference_is_structural(self):
        dm = dyck_copy_dmgts()
        for seq in ((0, -1), (2,)):
            with pytest.raises(StructuralError, match="unknown edge reference"):
                intermediate_accepts(dm.mgts, Run(GenConfig("r", {"y1": 0}), seq), {}, frozenset())

    def test_unfactorable_run(self):
        # a run that stops short of the last graph is not accepted
        dm = two_graph_dmgts()
        run = Run(GenConfig("r1", {"y1": 0}), ())
        assert intermediate_accepts(dm.mgts, run, {}, frozenset()) is None


class TestSideLanguages:
    def test_initial_lx_equals_subject(self):
        d1 = dyck_vas(1)
        nd = initial_dmgts(d1)
        lx = side_language_bounded(nd, "x", 4, "nat", CAPS)
        want = language_bounded(d1, 4, max_run_len=8, value_cap=10)
        assert strip_words(lx.words) == want

    def test_x_empty_gives_control_words(self):
        # X = ∅, mu = 1: L_X is every control-flow word with liftable Y values
        g = dyck_copy_graph()
        dm = Dmgts(Mgts([g]), 1, (), ("y1",), faithful=True)
        lx = side_language_bounded(dm, "x", 3, "nat", CAPS)
        words = strip_words(lx.words)
        assert (A1,) in words and (AB1,) in words and (AB1, A1) in words

    def test_bridge_letters_hash_annotated(self):
        dm = two_graph_dmgts(bridge_label=A1, bridge_update={"y1": 1})
        lx = side_language_bounded(dm, "x", 3, "nat", CAPS)
        assert ((A1, True),) in lx.words

    def test_ly_of_initial_is_dyck(self):
        nd = initial_dmgts(dyck_vas(1))
        ly = side_language_bounded(nd, "y", 2, "nat", CAPS)
        assert ly.words == frozenset({(), ((A1, False), (AB1, False))})

    def test_ly_subset_of_dyck_on_zero_reaching(self):
        from audits import is_dyck_word

        for dm in (dyck_copy_dmgts(), two_graph_dmgts(), two_graph_dmgts(A1, {"y1": 1})):
            assert is_zero_reaching(dm)
            ly = side_language_bounded(dm, "y", 6, "nat", CAPS)
            for w in ly.words:
                assert is_dyck_word([a for a, _ in w], 1)


class TestDmgtsWord:
    def test_hash_on_bridges_only(self):
        dm = two_graph_dmgts(bridge_label=A1, bridge_update={"y1": 1})
        mgts = dm.mgts
        seq = (combined_index(mgts, ("g", 0, 0)), combined_index(mgts, ("b", 0)),
               combined_index(mgts, ("g", 1, 1)), combined_index(mgts, ("g", 1, 1)))
        run = Run(GenConfig("r1", {"y1": 0}), seq)
        word = dmgts_word(run, mgts)
        assert word == ((A1, False), (A1, True), (AB1, False), (AB1, False))


class TestInitialDmgts:
    def test_mu_one_and_zero_y(self):
        nd = initial_dmgts(dyck_vas(1))
        assert nd.mu == 1
        assert is_zero_reaching(nd)
        assert nd.faithful

    def test_multi_node_folds(self):
        v = Vass(["p", "q"], dyck_alphabet(1), [],
                 [Edge("p", A1, {}, "q"), Edge("q", AB1, {}, "p")])
        sub = InitVass(v, GenConfig("p", {}), GenConfig("p", {}))
        nd = initial_dmgts(sub)
        assert len(nd.graphs) == 1
        lx = strip_words(side_language_bounded(nd, "x", 4, "nat", CAPS).words)
        assert lx == language_bounded(sub, 4, max_run_len=8, value_cap=8)

    def test_non_dyck_alphabet_rejected(self):
        v = Vass(["q"], ("z",), [], [Edge("q", "z", {}, "q")])
        with pytest.raises(ArgumentError):
            initial_dmgts(InitVass(v, GenConfig("q", {}), GenConfig("q", {})))
        with pytest.raises(ArgumentError):
            initial_parts(InitVass(Vass(["p", "q"], ("z",), [], [Edge("p", "z", {}, "q")]),
                                   GenConfig("p", {}), GenConfig("q", {})))

    def test_multi_node_self_loop_refused(self):
        # the fold fires a self-loop at every node: its token update is 0
        with pytest.raises(StructuralError, match="self-loop of node 'q'"):
            initial_dmgts(subject_starts_with_abar1())

    def test_one_node_parts_are_the_initial_dmgts(self):
        [part] = initial_parts(dyck_vas(1))
        assert canonical_key(part) == canonical_key(initial_dmgts(dyck_vas(1)))

    def test_multi_node_parts_unfold_the_dyck_product(self):
        # one simple path p → q → r: the loops stay in the graph of q, and the
        # path's two edges become the bridges
        parts = initial_parts(subject_starts_with_abar1())
        assert len(parts) == 1
        [part] = parts
        assert (part.mu, part.faithful, part.x_counters, part.y_counters) == (1, True, (), ("y.1",))
        assert [len(g.vass.edges) for g in part.graphs] == [0, 2, 0]
        assert [u.label for u in part.bridges] == [AB1, A1]
        assert part.mgts.in_marking == part.mgts.out_marking == {"y.1": 0}
        assert all(v is OMEGA for g in part.graphs[:-1] for v in g.out_marking.values())


@st.composite
def _small_vass(draw):
    """An initialized VASS with 1-3 nodes, 1-2 counters and 1-5 edges, updates
    in [-2, 2] and finite extremal valuations in [0, 2]."""
    nodes = [f"n{i}" for i in range(draw(st.integers(1, 3)))]
    counters = ["c", "d"][:draw(st.integers(1, 2))]
    node = st.sampled_from(nodes)
    update = st.fixed_dictionaries({c: st.integers(-2, 2) for c in counters})
    valuation = st.fixed_dictionaries({c: st.integers(0, 2) for c in counters})
    edges = draw(st.lists(st.builds(Edge, node, st.sampled_from(["a", "b"]), update, node),
                          min_size=1, max_size=5))
    return InitVass(Vass(nodes, ("a", "b"), counters, edges),
                    GenConfig(draw(node), draw(valuation)), GenConfig(draw(node), draw(valuation)))


class TestPerfectness:
    def test_initial_dyck_copy_perfect(self):
        assert perfectness_diagnosis(initial_dmgts(dyck_vas(1))) is None

    def test_minus_loop_hits_case_ii_first(self):
        # the ā1-only graph has its edge forced to zero, so under the priority
        # (i) < (ii) < (iii) the support condition fires before the Cov one
        g = graph_loops([(AB1, {"y1": -1})], ["y1"], {"y1": 0}, {"y1": 0})
        dm = Dmgts(Mgts([g]), 1, (), ("y1",), faithful=True)
        assert perfectness_diagnosis(dm).case == "ii"

    def test_missing_cov_is_case_iii(self):
        # dip-then-gain cycle: supports are justified but no N-run can pump
        v = Vass(["p", "q"], dyck_alphabet(1), ["c"],
                 [Edge("p", AB1, {"c": -1}, "q"), Edge("q", A1, {"c": 2}, "p")])
        base = InitVass(v, GenConfig("p", {"c": 0}), GenConfig("p", {"c": OMEGA}))
        g = PrecoveringGraph(base, {"p": {"c": OMEGA}, "q": {"c": OMEGA}})
        assert validate_precovering(g) == []
        dm = Dmgts(Mgts([g]), 1, ("c",), (), faithful=True)
        diag = perfectness_diagnosis(dm)
        assert diag.case == "iii" and diag.direction == "up"

    def test_edge_outside_y_support_is_case_ii(self):
        # a1 a1 control flow: Y side forces both loops to zero
        v = Vass(["p", "q"], dyck_alphabet(1), [],
                 [Edge("p", A1, {}, "q"), Edge("q", A1, {}, "p")])
        nd = initial_dmgts(InitVass(v, GenConfig("p", {}), GenConfig("p", {})))
        diag = perfectness_diagnosis(nd)
        assert diag.case == "ii" and diag.side == "y"

    def test_unfaithful_flag_blocks(self):
        dm = Dmgts(dyck_copy_dmgts().mgts, 1, (), ("y1",), faithful=False)
        assert perfectness_diagnosis(dm).case == "faithful-flag"

    @settings(max_examples=60, deadline=None)
    @given(_small_vass())
    def test_a_side_without_gates_is_vacuous(self, iv):
        # the Y side of a Y-free wrapper, which perfectness_diagnosis and
        # decompose skip: every variable is in its support and its ILP is feasible
        for mgts in fold_to_mgts_list(iv):
            dm = Dmgts(mgts, 1, mgts.counters, (), faithful=True)
            cs = build_char(dm, "y")
            assert support(cs) == frozenset(cs.system.vars)
            assert ilp_feasible(cs.system) is not None


class TestFaithfulness:
    def test_single_graph_none_found(self):
        assert faithfulness_falsify(dyck_copy_dmgts(), 4) is None

    def test_unreachable_intermediate_marking(self):
        # 2 graphs, first pins exit y1 = 1 but has no edges; with mu = 1 the
        # modulo run may pretend, the exact one cannot
        g1 = graph_loops([], ["y1"], {"y1": 0}, {"y1": 1},
                         assignment={"r1": {"y1": OMEGA}}, alphabet=dyck_alphabet(1),
                         root="r1")
        g2 = graph_loops([(AB1, {"y1": -1})], ["y1"], {"y1": OMEGA}, {"y1": 0}, root="r2")
        dm = Dmgts(Mgts([g1, g2], [Update(EPSILON, {"y1": 0})]), 1, (), ("y1",))
        hit = faithfulness_falsify(dm, 4)
        assert hit is not None

    @staticmethod
    def planted_with_x_counter():
        # the same planted hit with an X counter that the Dyck letter moves;
        # the X entry value is not compared by either acceptance
        g1 = graph_loops([], ["x1", "y1"], {"x1": 0, "y1": 0}, {"x1": OMEGA, "y1": 1},
                         alphabet=dyck_alphabet(1), root="r1")
        g2 = graph_loops([(AB1, {"x1": -1, "y1": -1})], ["x1", "y1"],
                         {"x1": OMEGA, "y1": OMEGA}, {"x1": OMEGA, "y1": 0}, root="r2")
        return Dmgts(Mgts([g1, g2], [Update(EPSILON, {"x1": 0, "y1": 0})]), 1, ("x1",), ("y1",))

    def test_unreachable_intermediate_marking_with_x_counter(self):
        dm = self.planted_with_x_counter()
        hit = faithfulness_falsify(dm, 4)
        assert hit is not None
        iv, _ = dm.mgts.combined()
        end = hit.final_config(iv.vass)
        # accepting on Y at the outer markings, modulo mu = 1 but not exactly in between
        assert end.node == iv.final.node
        assert (hit.start.valuation["y1"], end.valuation["y1"]) == (0, 0)
        assert intermediate_accepts(dm.mgts, hit, {"y1": 1}, frozenset())
        assert not intermediate_accepts(dm.mgts, hit, side_gates(dm, "y"), frozenset())

    def test_no_walk_is_factored(self, monkeypatch):
        # each walk extends its prefix's valuation and gates by one edge, so
        # the search gives the same counterexample without running the
        # one-pass run check on any walk
        dm = self.planted_with_x_counter()
        want = faithfulness_falsify(dm, 4)

        def fail(*args):
            raise AssertionError("intermediate_accepts called")

        monkeypatch.setattr(audits, "intermediate_accepts", fail)
        assert want is not None
        assert faithfulness_falsify(dm, 4) == want

    def test_all_omega_intermediates_none_found(self):
        assert faithfulness_falsify(two_graph_dmgts(), 4) is None

    def test_non_zero_reaching_rejected(self):
        g = graph_loops([(A1, {"y1": 1})], ["y1"], {"y1": 0}, {"y1": 1})
        dm = Dmgts(Mgts([g]), 1, (), ("y1",))
        with pytest.raises(ArgumentError):
            faithfulness_falsify(dm, 4)


class TestConsistentSpecialization:
    def test_identity_none_found(self):
        dm = dyck_copy_dmgts()
        assert consistent_specialization_falsify(dm, dm, 4, 4) is None

    def test_extra_edge_is_caught(self):
        bigger = Dmgts(
            Mgts([graph_loops(
                [(A1, {"y1": 1}), (AB1, {"y1": -1}), (inc_letter(1), {"y1": 1})],
                ["y1"], {"y1": 0}, {"y1": 0},
            )]), 1, (), ("y1",), faithful=True,
        )
        # n1 has a run signature (three a1-labeled loops vs two) not in n2? same
        # labels and updates -> matched; instead drop an edge from n2:
        smaller = Dmgts(
            Mgts([graph_loops([(A1, {"y1": 1})], ["y1"], {"y1": 0}, {"y1": 0})]),
            1, (), ("y1",), faithful=True,
        )
        hit = consistent_specialization_falsify(dyck_copy_dmgts(), smaller, 3, 3)
        assert hit is not None and hit[0] == "no-matching-run"

    def test_condition_2_with_x_counter_is_caught(self):
        # n1 exits its first graph with y1 = 0 where its marking pins 1: the
        # modulo run (mu = 1) passes, the exact one does not
        g1 = graph_loops([], ["x1", "y1"], {"x1": 0, "y1": 0}, {"x1": OMEGA, "y1": 1},
                         alphabet=dyck_alphabet(1), root="r1")
        g2 = graph_loops([(AB1, {"x1": 1, "y1": -1})], ["x1", "y1"],
                         {"x1": OMEGA, "y1": OMEGA}, {"x1": OMEGA, "y1": 0}, root="r2")
        n1 = Dmgts(Mgts([g1, g2], [Update(EPSILON, {"x1": 0, "y1": 0})]), 1, ("x1",), ("y1",))
        p = graph_loops([(EPSILON, {}), (AB1, {"x1": 1, "y1": -1})], ["x1", "y1"],
                        {"x1": 0, "y1": 0}, {"x1": OMEGA, "y1": 0}, alphabet=dyck_alphabet(1))
        n2 = Dmgts(Mgts([p]), 1, ("x1",), ("y1",))
        hit = consistent_specialization_falsify(n1, n2, 3, 3)
        assert hit is not None and hit[0] == "condition-2"

    def test_mismatched_counters_rejected(self):
        # the Dyck VAS's initial DMGTS has counters x.y1 and y.1, not y1
        with pytest.raises(ArgumentError):
            consistent_specialization_falsify(dyck_copy_dmgts(), initial_dmgts(dyck_vas(1)), 3, 3)
        # the same counters, split into X and Y the other way
        as_x = Dmgts(dyck_copy_dmgts().mgts, 1, ("y1",), ())
        with pytest.raises(ArgumentError):
            consistent_specialization_falsify(as_x, dyck_copy_dmgts(), 3, 3)


class TestSubstitute:
    def test_empty_context_identity(self):
        dm = dyck_copy_dmgts()
        ctx = MgtsContext.around(dm.mgts, 0)
        assert ctx.is_empty()
        out = substitute(ctx, dm)
        assert canonical_key(out) == canonical_key(dm)

    def test_rank_monotone_under_context(self):
        from vasslab.structure import rank, rank_less

        dm2 = two_graph_dmgts()
        ctx = MgtsContext.around(dm2.mgts, 1)
        small = Mgts([graph_loops([(A1, {"y1": 1})], ["y1"],
                                  {"y1": OMEGA}, {"y1": 0}, root="z")])
        big = Mgts([dyck_copy_graph(root="z")])
        # replace markings so both are valid inserts
        if rank_less(rank(small), rank(big)):
            assert rank_less(rank(substitute(ctx, small)), rank(substitute(ctx, big)))

    def test_node_disjointness_revalidated(self):
        dm2 = two_graph_dmgts()
        ctx = MgtsContext.around(dm2.mgts, 1)
        clash = Mgts([dyck_copy_graph(root="r1")])  # r1 already used by the context
        with pytest.raises(StructuralError):
            substitute(ctx, clash)


def test_fold_states_preserves_language():
    v = Vass(["p", "q"], dyck_alphabet(1), ["c"],
             [Edge("p", A1, {"c": 1}, "q"), Edge("q", AB1, {"c": -1}, "p")])
    sub = InitVass(v, GenConfig("p", {"c": 0}), GenConfig("p", {"c": 0}))
    folded = fold_states(sub)
    assert len(folded.vass.nodes) == 1
    a = language_bounded(sub, 5, max_run_len=8, value_cap=8)
    b = language_bounded(folded, 5, max_run_len=8, value_cap=8)
    assert a == b


def test_fold_states_adds_words_at_a_self_loop():
    # a self-loop's token update is 0, so the folded loop fires at every node
    sub = subject_starts_with_abar1()
    folded = language_bounded(fold_states(sub), 4, max_run_len=8, value_cap=8)
    words = language_bounded(sub, 4, max_run_len=8, value_cap=8)
    assert words < folded and (A1, AB1, A1, AB1) in folded - words


def test_fold_to_mgts_preserves_bounded_language():
    v = Vass(["p", "q", "s"], ("a", "b"), ["c"],
             [Edge("p", "a", {"c": 1}, "q"), Edge("q", "b", {"c": -1}, "p"),
              Edge("q", "a", {"c": 0}, "s"), Edge("s", "a", {"c": 1}, "s")])
    for iv in (InitVass(v, GenConfig("p", {"c": 0}), GenConfig("s", {"c": 2})),
               subject_starts_with_abar1()):
        want = language_bounded(iv, 5, max_run_len=8, value_cap=12)
        got = set()
        for mgts in fold_to_mgts_list(iv):
            dm = Dmgts(mgts, 1, tuple(mgts.counters), (), faithful=True)
            got |= strip_words(side_language_bounded(dm, "x", 5, "nat", CAPS).words)
        assert want and got == want


@st.composite
def _looped_subjects(draw):
    """A subject over Σ_1 with 2-3 nodes, one counter and 1-5 edges, at least
    one of them a self-loop."""
    nodes = [f"n{i}" for i in range(draw(st.integers(2, 3)))]
    node = st.sampled_from(nodes)
    label = st.sampled_from([A1, AB1, EPSILON])
    delta = st.integers(-1, 1)
    loop = draw(node)
    edges = [Edge(loop, draw(label), {"c": draw(delta)}, loop)]
    for _ in range(draw(st.integers(0, 4))):
        edges.insert(draw(st.integers(0, len(edges))),
                     Edge(draw(node), draw(label), {"c": draw(delta)}, draw(node)))
    return InitVass(Vass(nodes, dyck_alphabet(1), ["c"], edges),
                    GenConfig(draw(node), {"c": draw(st.integers(0, 1))}),
                    GenConfig(draw(node), {"c": draw(st.integers(0, 2))}))


@given(_looped_subjects())
def test_initial_parts_cover_exactly_the_subject_language(sub):
    # the parts' X-side languages together are L(subject): no word added at a
    # self-loop, none lost at a path cut
    caps = LanguageCaps(max_run_len=8, value_cap=8)
    got = set()
    for part in initial_parts(sub):
        lang = side_language_bounded(part, "x", 4, "nat", caps)
        got |= strip_words(lang.words)
    assert got == language_bounded(sub, 4, max_run_len=8, value_cap=8)


class TestUnfoldCaps:
    @staticmethod
    def unfold(edges, final, **caps):
        return unfold_paths([(s, "a", {}, d) for s, d in edges], ["n0"], final.__eq__,
                            lambda pos, q: f"f{pos}.{q}", lambda q: {}, {}, {}, ("a",), [],
                            **caps)

    def test_path_cap(self):
        # three diamonds in a row: 8 simple paths from n0 to n3
        edges = [(f"n{i}", f"n{i + 1}") for i in range(3) for _ in range(2)]
        assert len(self.unfold(edges, "n3", path_cap=8)) == 8
        with pytest.raises(ResourceExhausted, match="^simple path cap 7 exceeded$"):
            self.unfold(edges, "n3", path_cap=7)

    def test_step_cap(self, monkeypatch):
        # the complete graph on 5 nodes: 65 simple paths from n0, one of
        # them n0 itself, the only final state
        nodes = [f"n{i}" for i in range(5)]
        edges = [(u, v) for u in nodes for v in nodes if u != v]
        monkeypatch.setattr(mgts_module, "PATH_STEP_CAP", 130)
        assert len(self.unfold(edges, "n0")) == 1
        monkeypatch.setattr(mgts_module, "PATH_STEP_CAP", 129)
        with pytest.raises(ResourceExhausted, match="^simple path step cap 129 exceeded$"):
            self.unfold(edges, "n0")


def test_json_roundtrip():
    dm = two_graph_dmgts(bridge_label=A1, bridge_update={"y1": 1}, mu=3)
    doc = dmgts_to_json(dm)
    back = dmgts_from_json(doc)
    assert canonical_key(back) == canonical_key(dm)
    json.dumps(doc)


def test_side_language_memo_freed_on_return():
    # the two-letter subject of the curated suite: no counters, so its X-side
    # language is every word over a1, ā1, a2
    letters = (inc_letter(1), dec_letter(1), inc_letter(2))
    v = Vass(["q"], dyck_alphabet(2), [], [Edge("q", a, {}, "q") for a in letters])
    dm = initial_dmgts(InitVass(v, GenConfig("q", {}), GenConfig("q", {})))
    gc.collect()
    gc.disable()
    try:
        lang = side_language_bounded(dm, "x", 3, "nat", LanguageCaps(8, 6))
        unreachable = gc.collect()
    finally:
        gc.enable()
    # the memo of the recursive walk held 2850 objects in a reference cycle
    assert unreachable < 50
    assert lang.words == {
        tuple((a, False) for a in w)
        for k in range(4) for w in itertools.product(letters, repeat=k)
    }
