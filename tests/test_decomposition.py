import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from vasslab import decomposition
from vasslab.chareq import build_char
from vasslab.decomposition import (
    BOT,
    Observer,
    ct,
    dec_along,
    decompose,
    mod_residue_expansion,
    observer_product,
    refine_case_i,
    refine_case_ii,
    refine_case_iii,
    trace_to_jsonl,
)
from vasslab.errors import ArgumentError, ResourceExhausted
from vasslab.mgts import (
    Dmgts,
    LanguageCaps,
    Mgts,
    PipelineCaps,
    PrecoveringGraph,
    Update,
    canonical_key,
    perfectness_diagnosis,
    side_language_bounded,
    validate_precovering,
)
from vasslab.model import (
    Edge,
    GenConfig,
    InitVass,
    Vass,
    dec_letter,
    dyck_alphabet,
    dyck_vas,
    inc_letter,
)
from vasslab.mgts import initial_dmgts, initial_parts
from vasslab.solver import STATS, ilp_feasible
from vasslab.structure import rank, rank_less
from vasslab.values import OMEGA

import conftest
from audits import consistent_specialization_falsify, faithfulness_falsify, is_zero_reaching
from conftest import dyck_copy_graph, graph_loops, strip_words
from test_acceptance import curated_suite

A1, AB1, A2, AB2 = inc_letter(1), dec_letter(1), inc_letter(2), dec_letter(2)
CAPS = LanguageCaps(max_run_len=10, value_cap=24)
STATES = PipelineCaps().observer_states  # the pipeline's observer-product cap


def identity_observer() -> Observer:
    return Observer(initial=("*",), step=lambda s, ei: (s,))


def bounded_lx(dm, max_len=6):
    return strip_words(side_language_bounded(dm, "x", max_len, "nat", CAPS).words)


def union_lx(result, max_len=6):
    out = set()
    for m in result.perfect:
        out |= bounded_lx(m, max_len)
    for d in result.decided:
        out |= bounded_lx(d.dmgts, max_len)
    return out


class TestCt:
    def test_mapping(self):
        assert ct(3, -1) is BOT
        assert ct(3, 4) is OMEGA
        assert ct(3, 2) == 2

    def test_absorbing(self):
        from vasslab.decomposition import ct_add

        assert ct_add(BOT, 5) is BOT
        assert ct_add(OMEGA, -9) is OMEGA


class TestModuloExpansion:
    def test_paper_instance(self):
        assert mod_residue_expansion(2, 3, 12) == [2, 5, 8, 11]

    def test_divisibility_required(self):
        with pytest.raises(ArgumentError):
            mod_residue_expansion(0, 3, 10)


class TestObserverProduct:
    def test_identity_isomorphic(self):
        g = dyck_copy_graph()
        prod = observer_product(g, identity_observer(), STATES)
        assert len(prod.states) == len(g.vass.nodes)
        assert sum(len(v) for v in prod.transitions.values()) == len(g.vass.edges)

    def test_edge_count_observer(self):
        g = dyck_copy_graph()

        def step(s, ei):
            return (ct(1, s + 1),) if ei == 0 else (s,)

        prod = observer_product(g, Observer(initial=(0,), step=step), STATES)
        # counting the a1 loop twice reaches the ω state
        assert ("r", OMEGA) in prod.states

    def test_unreachable_states_absent(self):
        g = dyck_copy_graph()
        obs = Observer(initial=(0,), step=lambda s, ei: (s,))
        prod = observer_product(g, obs, STATES)
        assert ("r", 99) not in prod.states


class TestDecAlong:
    def test_identity_single_output(self):
        g = dyck_copy_graph()
        out = dec_along(g, identity_observer(), lambda s: True, STATES)
        assert len(out) == 1
        m = out[0]
        assert len(m.graphs) == 1 and len(m.graphs[0].vass.edges) == 2
        assert m.in_marking[g.vass.counters[0]] == 0

    def test_split_on_one_edge(self):
        g = dyck_copy_graph()

        def step(s, ei):
            return (ct(0, s + 1),) if ei == 0 else (s,)

        # F_u: count zero a1 edges; the splitting path uses e0 once toward ω
        outs = dec_along(g, Observer(initial=(0,), step=step),
                         lambda s: s is OMEGA, STATES)
        assert outs and all(len(m.graphs) == 2 for m in outs)
        assert all(m.bridges[0].label == A1 for m in outs)

    def test_unreachable_final_empty(self):
        g = dyck_copy_graph()
        outs = dec_along(g, identity_observer(), lambda s: False, STATES)
        assert outs == []

    def test_outputs_are_consistent_specializations(self):
        g = dyck_copy_graph()

        def step(s, ei):
            return (ct(1, s + 1),) if ei == 0 else (s,)

        outs = dec_along(g, Observer(initial=(0,), step=step), lambda s: s is OMEGA, STATES)
        target = Dmgts(Mgts([g]), 1, (), ("y1",), faithful=True)
        for m in outs:
            dm = Dmgts(m, 1, (), ("y1",), faithful=True)
            assert consistent_specialization_falsify(dm, target, 3, 3) is None

    def test_observer_language_completeness(self):
        # every bounded accepting run whose edge word the observer accepts has
        # an equivalent run in some output
        g = dyck_copy_graph()

        def step(s, ei):
            return (ct(1, s + 1),) if ei == 0 else (s,)

        obs = Observer(initial=(0,), step=step)
        outs = dec_along(g, obs, lambda s: s is not OMEGA, STATES)
        parent = Dmgts(Mgts([g]), 1, (), ("y1",), faithful=True)
        kept = set()
        for m in outs:
            kept |= bounded_lx(Dmgts(m, 1, (), ("y1",), faithful=True), 4)
        # parent words using the a1 edge at most once
        for w in bounded_lx(parent, 4):
            if w.count(A1) <= 1:
                assert w in kept


def case_i_x_dmgts():
    """X counter with an ω out-marking whose value set is finite {0, 2}."""
    v = Vass(["r"], dyck_alphabet(1), ["k"],
             [Edge("r", A1, {"k": 2}, "r"), Edge("r", AB1, {"k": -2}, "r")])
    base = InitVass(v, GenConfig("r", {"k": 0}), GenConfig("r", {"k": OMEGA}))
    g = PrecoveringGraph(base, {"r": {"k": OMEGA}})
    # bound k by a context? single graph: k out free => unbounded. Pin by a
    # second counter? use updates that cancel: k net <= 2 via char: use edges
    # +2 and -2 with out-marking ω and in 0: values are even, unbounded.
    return None


class TestRefineCaseI:
    def make_x_case(self):
        # X counter j: in 0, out ω, edges a1 (+0 on j) and ā1; j only moved by
        # a bounded-edge pattern: j gets +1 on a1 but Char_Y bounds a1 count…
        # simpler: j untouched by all edges -> A_X = {0}
        v = Vass(["r"], dyck_alphabet(1), ["j", "y1"],
                 [Edge("r", A1, {"j": 0, "y1": 1}, "r"),
                  Edge("r", AB1, {"j": 0, "y1": -1}, "r")])
        base = InitVass(v, GenConfig("r", {"j": 0, "y1": 0}),
                        GenConfig("r", {"j": OMEGA, "y1": 0}))
        g = PrecoveringGraph(base, {"r": {"j": OMEGA, "y1": OMEGA}})
        return Dmgts(Mgts([g]), 1, ("j",), ("y1",), faithful=True)

    def test_x_side_concretizes(self):
        dm = self.make_x_case()
        diag = perfectness_diagnosis(dm)
        assert (diag.case, diag.side, diag.counter, diag.io) == ("i", "x", "j", "out")
        out = refine_case_i(dm, 0, "x", "j", "out")
        assert out.case == "i-x" and out.y_set == []
        assert [m.mgts.out_marking["j"] for m in out.x_set] == [0]
        assert all(rank_less(rank(m), rank(dm)) for m in out.x_set)

    def make_y_case(self, mu=1):
        # Y counter with ω out-marking whose value is forced to zero: a 2-node
        # a1/ā1 cycle has net effect zero, so the exit variable is bounded
        v = Vass(["p", "q"], dyck_alphabet(1), ["y1"],
                 [Edge("p", A1, {"y1": 1}, "q"), Edge("q", AB1, {"y1": -1}, "p")])
        base = InitVass(v, GenConfig("p", {"y1": 0}), GenConfig("p", {"y1": OMEGA}))
        g = PrecoveringGraph(base, {"p": {"y1": OMEGA}, "q": {"y1": OMEGA}})
        return Dmgts(Mgts([g]), mu, (), ("y1",), faithful=True)

    def test_y_side_grows_modulus(self):
        dm = self.make_y_case()
        diag = perfectness_diagnosis(dm)
        assert (diag.case, diag.side) == ("i", "y")
        out = refine_case_i(dm, 0, "y", "y1", "out")
        assert out.case == "i-y"
        # A = {0}, entries all 0 -> l = 1, mu_new = 1: the single variant is
        # the X-set member with the ω replaced by 0
        assert all(m.mu == 1 for m in out.x_set + out.y_set)
        assert len(out.x_set) == 1 and out.x_set[0].mgts.out_marking["y1"] == 0
        assert out.x_set[0].faithful

    def test_y_side_residue_split(self):
        dm = self.make_y_case(mu=2)
        out = refine_case_i(dm, 0, "y", "y1", "out")
        # l = 1, mu_new = 2: the ω position expands to {0, 1}; the in-marking 0
        # stays pinned (zero-reaching), the odd variant is modulo-decided
        assert all(m.mu == 2 for m in out.x_set + out.y_set)
        outs = sorted(m.mgts.out_marking["y1"] for m in out.x_set + out.y_set)
        assert outs == [0, 1]
        assert len(out.y_set) == 1 and out.y_certificates == ["modulo-nonzero"]
        ym = out.y_set[0]
        # every bounded L_X word of the decided member has odd visible effect
        for w in bounded_lx(ym, 5):
            eff = sum(1 if a == A1 else -1 if a == AB1 else 0 for a in w)
            assert eff % 2 == 1


class TestRefineCaseII:
    def make_case(self):
        # control flow a1 a1 around two nodes: Y-side forces both edges to 0
        v = Vass(["p", "q"], dyck_alphabet(1), [],
                 [Edge("p", A1, {}, "q"), Edge("q", A1, {}, "p")])
        return initial_dmgts(InitVass(v, GenConfig("p", {}), GenConfig("p", {})))

    def test_diagnosis_and_split(self):
        dm = self.make_case()
        diag = perfectness_diagnosis(dm)
        assert (diag.case, diag.side) == ("ii", "y")
        out = refine_case_ii(dm, 0, "y")
        assert out.case == "ii-y"
        assert out.x_set and out.y_set
        for m in out.x_set:
            assert rank_less(rank(m), rank(dm))
        for m, cert in zip(out.y_set, out.y_certificates):
            assert cert == "y-infeasible"
            assert ilp_feasible(build_char(m, "y").system) is None

    def test_language_preserved(self):
        dm = self.make_case()
        out = refine_case_ii(dm, 0, "y")
        before = bounded_lx(dm, 6)
        after = set()
        for m in out.x_set + out.y_set:
            after |= bounded_lx(m, 6)
        assert before == after


class TestRefineCaseIII:
    def dip_graph(self):
        v = Vass(["p", "q"], dyck_alphabet(1), ["c"],
                 [Edge("p", AB1, {"c": -1}, "q"), Edge("q", A1, {"c": 2}, "p")])
        base = InitVass(v, GenConfig("p", {"c": 0}), GenConfig("p", {"c": OMEGA}))
        g = PrecoveringGraph(base, {"p": {"c": OMEGA}, "q": {"c": OMEGA}})
        return Dmgts(Mgts([g]), 1, ("c",), (), faithful=True)

    def test_subcase_d_concretizes(self):
        dm = self.dip_graph()
        diag = perfectness_diagnosis(dm)
        assert diag.case == "iii"
        out = refine_case_iii(dm, 0, "up")
        assert out.case == "iii-d"
        for m in out.x_set:
            assert rank_less(rank(m), rank(dm))
        before = bounded_lx(dm, 4)
        after = set()
        for m in out.x_set + out.y_set:
            after |= bounded_lx(m, 4)
        assert before == after

    def test_subcase_b_enriches(self):
        # fixed ω-decorated counter j (finite extremal markings, so case (i)
        # never fires) with φ ≥ 0; the pump counter c keeps the supports alive
        # while j blocks every covering sequence
        v = Vass(["p", "q"], dyck_alphabet(1), ["c", "j", "y1"],
                 [Edge("p", AB1, {"c": -1, "j": 1, "y1": -1}, "q"),
                  Edge("q", A1, {"c": 2, "j": -1, "y1": 1}, "p")])
        base = InitVass(v, GenConfig("p", {"c": 0, "j": 0, "y1": 0}),
                        GenConfig("p", {"c": OMEGA, "j": 0, "y1": 0}))
        g = PrecoveringGraph(base, {q: {"c": OMEGA, "j": OMEGA, "y1": OMEGA}
                                    for q in ("p", "q")})
        assert validate_precovering(g) == []
        dm = Dmgts(Mgts([g]), 1, ("c", "j"), ("y1",), faithful=True)
        diag = perfectness_diagnosis(dm)
        assert diag.case == "iii"
        out = refine_case_iii(dm, 0, diag.direction)
        assert out.case == "iii-b"
        assert len(out.x_set) == 1 and not out.y_set
        enriched = out.x_set[0].graphs[0]
        assert "j" in enriched.concrete
        assert rank_less(rank(out.x_set[0]), rank(dm))

    def test_down_direction_via_reversal(self):
        # only the down-covering sequence is missing; the construction runs on
        # the reversed graph and the outputs are reversed back
        v = Vass(["p", "q"], dyck_alphabet(1), ["c"],
                 [Edge("p", A1, {"c": -2}, "q"), Edge("q", AB1, {"c": 1}, "p")])
        base = InitVass(v, GenConfig("p", {"c": OMEGA}), GenConfig("p", {"c": 0}))
        g = PrecoveringGraph(base, {"p": {"c": OMEGA}, "q": {"c": OMEGA}})
        dm = Dmgts(Mgts([g]), 1, ("c",), (), faithful=True)
        diag = perfectness_diagnosis(dm)
        assert (diag.case, diag.direction) == ("iii", "down")
        out = refine_case_iii(dm, 0, "down")
        assert out.target["direction"] == "down"
        for m in out.x_set:
            assert rank_less(rank(m), rank(dm))
        before = bounded_lx(dm, 5)
        after = set()
        for m in out.x_set + out.y_set:
            after |= bounded_lx(m, 5)
        assert before == after

    def test_subcase_c_deletes_edge(self):
        # fixed counter j with a negative potential at q forces the in-edge cut
        v = Vass(["p", "q"], dyck_alphabet(1), ["j", "y1"],
                 [Edge("p", AB1, {"j": -1, "y1": -1}, "q"),
                  Edge("q", A1, {"j": 1, "y1": 1}, "p"),
                  Edge("p", A1, {"j": 0, "y1": 1}, "p"),
                  Edge("p", AB1, {"j": 0, "y1": -1}, "p")])
        base = InitVass(v, GenConfig("p", {"j": 0, "y1": 0}),
                        GenConfig("p", {"j": 0, "y1": 0}))
        g = PrecoveringGraph(base, {"p": {"j": OMEGA, "y1": OMEGA},
                                    "q": {"j": OMEGA, "y1": OMEGA}})
        dm = Dmgts(Mgts([g]), 1, ("j",), ("y1",), faithful=True)
        diag = perfectness_diagnosis(dm)
        assert diag.case == "iii"
        out = refine_case_iii(dm, 0, diag.direction)
        assert out.case == "iii-c"
        assert len(out.x_set) == 1
        assert len(out.x_set[0].graphs[0].vass.edges) < 4


class TestDecompose:
    def test_already_perfect(self):
        res = decompose(initial_dmgts(dyck_vas(1)))
        assert len(res.perfect) == 1 and not res.decided

    def test_x_infeasible_dropped(self):
        v = Vass(["q"], dyck_alphabet(1), ["c"], [Edge("q", "", {"c": 0}, "q")])
        sub = InitVass(v, GenConfig("q", {"c": 0}), GenConfig("q", {"c": 1}))
        res = decompose(initial_dmgts(sub))
        assert not res.perfect and not res.decided

    def test_y_infeasible_perfect_member(self):
        # a +1 bridge between zero-pinned Dyck markings: the member is perfect
        # (nothing to pump or unroll) and its Dyck-side system is infeasible,
        # so the oracle separates it outright
        g1 = graph_loops([], ["y1"], {"y1": 0}, {"y1": 0},
                         assignment={"r1": {"y1": 0}}, alphabet=dyck_alphabet(1), root="r1")
        g2 = graph_loops([], ["y1"], {"y1": 0}, {"y1": 0},
                         assignment={"r2": {"y1": 0}}, alphabet=dyck_alphabet(1), root="r2")
        dm = Dmgts(Mgts([g1, g2], [Update(A1, {"y1": 1})]), 1, (), ("y1",), faithful=True)
        res = decompose(dm)
        assert len(res.perfect) == 1 and not res.decided
        assert ilp_feasible(build_char(res.perfect[0], "y").system) is None
        from vasslab.zsep import z_separability

        assert z_separability(res.perfect[0]).strategy == "y-infeasible"

    def test_y_infeasible_decided_below_top(self):
        # one pumping loop makes the member imperfect, so the worklist reaches
        # the feasibility checks and decides the Dyck-infeasible part
        g1 = graph_loops([(A1, {"y1": 1})], ["y1"], {"y1": 0}, {"y1": 0}, root="r1")
        g2 = graph_loops([], ["y1"], {"y1": 0}, {"y1": 0},
                         assignment={"r2": {"y1": 0}}, alphabet=dyck_alphabet(1), root="r2")
        dm = Dmgts(Mgts([g1, g2], [Update(A1, {"y1": 1})]), 1, (), ("y1",), faithful=True)
        res = decompose(dm)
        assert not res.perfect
        assert res.decided and all(d.certificate == "y-infeasible" for d in res.decided)
        for d in res.decided:
            assert ilp_feasible(build_char(d.dmgts, "y").system) is None

    def test_language_preservation_and_rank(self):
        v = Vass(["p", "q"], dyck_alphabet(1), [],
                 [Edge("p", A1, {}, "q"), Edge("q", A1, {}, "p")])
        dm = initial_dmgts(InitVass(v, GenConfig("p", {}), GenConfig("p", {})))
        res = decompose(dm)
        assert bounded_lx(dm, 6) == union_lx(res, 6)
        for entry in res.trace:
            if "rank_after" in entry:
                for after in entry["rank_after"]:
                    assert tuple(after) < tuple(entry["rank_before"])

    def test_trace_is_jsonl(self):
        import json

        res = decompose(initial_dmgts(dyck_vas(1)))
        for line in trace_to_jsonl(res.trace).splitlines():
            json.loads(line)

    def test_deterministic(self):
        v = Vass(["p", "q"], dyck_alphabet(1), [],
                 [Edge("p", A1, {}, "q"), Edge("q", A1, {}, "p")])
        dm = initial_dmgts(InitVass(v, GenConfig("p", {}), GenConfig("p", {})))
        r1, r2 = decompose(dm), decompose(dm)
        assert [canonical_key(m) for m in r1.perfect] == [canonical_key(m) for m in r2.perfect]
        assert [canonical_key(d.dmgts) for d in r1.decided] == [
            canonical_key(d.dmgts) for d in r2.decided
        ]


def random_visible_dmgts(rng):
    """A random faithful single-graph DMGTS: Dyck-visible Y counter, optional
    X counter, strongly connected base, zero-reaching."""
    from vasslab.values import OMEGA

    k = rng.randint(1, 2)
    nodes = [f"n{i}" for i in range(k)]
    with_x = rng.random() < 0.6
    counters = (["x0"] if with_x else []) + ["y1"]
    letters = [A1, AB1, ""]
    pairs = [(nodes[i], nodes[(i + 1) % k]) for i in range(k)] if k > 1 else []
    for _ in range(rng.randint(1, 2)):
        pairs.append((rng.choice(nodes), rng.choice(nodes)))
    edges = []
    for src, dst in pairs:
        lab = rng.choice(letters)
        upd = {"y1": {A1: 1, AB1: -1, "": 0}[lab]}
        if with_x:
            upd["x0"] = rng.randint(-1, 1)
        edges.append(Edge(src, lab, upd, dst))
    root = nodes[0]
    in_val = {"y1": 0}
    out_val = {"y1": 0}
    if with_x:
        in_val["x0"] = rng.randint(0, 2)
        out_val["x0"] = rng.choice([OMEGA, rng.randint(0, 2)])
    vass = Vass(nodes, dyck_alphabet(1), counters, edges)
    base = InitVass(vass, GenConfig(root, in_val), GenConfig(root, out_val))
    g = PrecoveringGraph(base, {q: {c: OMEGA for c in counters} for q in nodes})
    return Dmgts(Mgts([g]), rng.choice([1, 2]), tuple(c for c in counters if c != "y1"),
                 ("y1",), faithful=True)


def test_decompose_soak(rng, monkeypatch):
    # random faithful DMGTS: the loop must terminate (or abort honestly) and
    # preserve the plain subject words whenever it completes
    monkeypatch.setattr(decomposition, "REFINE_STEPS", 60)
    monkeypatch.setattr(decomposition, "PATH_CAP", 500)
    completed = 0
    for _ in range(25):
        dm = random_visible_dmgts(rng)
        try:
            res = decompose(dm, PipelineCaps(variants=2000))
        except ResourceExhausted:
            continue
        completed += 1
        before = bounded_lx(dm, 5)
        after = set()
        for m in res.perfect:
            after |= bounded_lx(m, 5)
        for d in res.decided:
            after |= bounded_lx(d.dmgts, 5)
        assert before == after
    assert completed >= 15


def test_annotated_words_differ_only_in_bridge_marks():
    # documentation of the λ# convention: decomposition preserves the plain
    # words exactly, while structural refines move letters onto bridges
    v = Vass(["p", "q"], dyck_alphabet(1), [],
             [Edge("p", A1, {}, "q"), Edge("q", A1, {}, "p")])
    dm = initial_dmgts(InitVass(v, GenConfig("p", {}), GenConfig("p", {})))
    res = decompose(dm)
    before_annotated = side_language_bounded(dm, "x", 6, "nat", CAPS).words
    after_annotated = set()
    for d in res.decided:
        after_annotated |= side_language_bounded(d.dmgts, "x", 6, "nat", CAPS).words
    for m in res.perfect:
        after_annotated |= side_language_bounded(m, "x", 6, "nat", CAPS).words
    assert before_annotated != frozenset(after_annotated)
    assert strip_words(before_annotated) == strip_words(after_annotated)


# -- the faithfulness audit ------------------------------------------------------

_AUDIT = []


def _audit_inputs():
    """The curated suite and the initial parts of every conftest subject."""
    subjects = [getattr(conftest, name)() for name in dir(conftest)
                if name.startswith("subject_")]
    return [dm for _, dm in curated_suite()] + [dm for s in subjects for dm in initial_parts(s)]


def audited_decompositions():
    """Decompose the audit inputs, recording each refine step. Returns the perfect members and the
    (member, parent) pairs of the steps whose parent is one graph, for the
    members that keep the parent's mu."""
    if not _AUDIT:
        import vasslab.decomposition as decomposition

        steps = []
        unrecorded = decomposition.refine

        def recording(dm, caps):
            outcome = unrecorded(dm, caps)
            steps.append((dm, outcome))
            return outcome

        perfect = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(decomposition, "refine", recording)
            for dm in _audit_inputs():
                perfect += decompose(dm).perfect
        pairs = [(m, parent) for parent, outcome in steps if len(parent.graphs) == 1
                 for m in outcome.x_set + outcome.y_set if m.mu == parent.mu]
        _AUDIT.extend((perfect, pairs))
    return _AUDIT


def test_perfect_members_pass_faithfulness_falsify():
    perfect, _ = audited_decompositions()
    assert perfect
    for m in perfect:
        assert is_zero_reaching(m)
        assert faithfulness_falsify(m, 8) is None


def test_refine_members_are_consistent_specializations():
    _, pairs = audited_decompositions()
    assert pairs
    for m, parent in pairs:
        assert consistent_specialization_falsify(m, parent, 6, 6) is None


# -- the per-step solver meter ---------------------------------------------------------

def test_concurrent_decompositions_keep_their_traces():
    """Each refine entry's solver_stats counts that step's own LP and ILP
    calls, also while other decompositions run in other threads."""
    def traced(dm):
        return decompose(dm).trace

    sequential = [traced(dm) for dm in _audit_inputs()]
    assert any(e["solver_stats"]["lp_calls"] for t in sequential for e in t if "solver_stats" in e)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so that steps interleave
    try:
        with ThreadPoolExecutor(max_workers=len(sequential)) as pool:
            concurrent = list(pool.map(traced, _audit_inputs()))
    finally:
        sys.setswitchinterval(interval)
    assert concurrent == sequential


def test_cap_inside_refine_closes_the_meter():
    even = [dm for name, dm in curated_suite() if name == "even-a1"][0]
    with pytest.raises(ResourceExhausted, match="observer product"):
        decompose(even, PipelineCaps(observer_states=0))
    assert STATS.get() is None
