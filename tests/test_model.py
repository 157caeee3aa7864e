import pytest
from hypothesis import given
from hypothesis import strategies as st

from vasslab.errors import ArgumentError, StructuralError
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
    edge_walks,
    effect,
    inc_letter,
    init_vass_from_json,
    init_vass_to_json,
    is_dyck_visible,
    language_bounded,
    letter_index,
)
from vasslab.mgts import Mgts, PrecoveringGraph, intermediate_accepts
from vasslab.values import OMEGA, is_omega

from audits import Violation, hardness_gadget, is_dyck_word, simulate, word_effect

A1, AB1, A2 = inc_letter(1), dec_letter(1), inc_letter(2)


# -- the Dyck product reduction (no vasslab verb runs it yet) --------------------

def _canonical_dyck_encoding(vec, y_counters):
    """Letters spelling vec: all increments then all decrements, ascending index."""
    letters = []
    for i, c in enumerate(y_counters, start=1):
        for _ in range(max(0, vec.get(c, 0))):
            letters.append(inc_letter(i))
    for i, c in enumerate(y_counters, start=1):
        for _ in range(max(0, -vec.get(c, 0))):
            letters.append(dec_letter(i))
    return letters


def fix_dyck_product(subject: InitVass, second: InitVass) -> InitVass:
    """Reduce separability/intersection of L(subject) and L(second) to the same
    question between a Dyck-visible product and the Dyck language.

    Counters are X = subject's (prefixed x.) disjoint-union Y = one per counter
    of `second`; each matched edge pair contributes a path spelling the
    canonical Dyck encoding of the second's update, with the subject's update
    applied on the first step. The second's initial valuation is loaded by a
    visible prefix chain and its final valuation discharged by a suffix chain.
    """
    if set(subject.vass.alphabet) != set(second.vass.alphabet):
        raise ArgumentError("fix_dyck_product needs a shared alphabet")
    ys = list(second.vass.counters)
    n = len(ys)
    for cfg in (second.init, second.final):
        if any(is_omega(v) for v in cfg.valuation.values()):
            raise ArgumentError("second automaton needs finite extremal valuations")

    x_of = {c: f"x.{c}" for c in subject.vass.counters}
    y_of = {c: f"y{ys.index(c) + 1}" for c in ys}
    counters = sorted(x_of.values()) + [y_of[c] for c in ys]
    zero = {c: 0 for c in counters}

    def lift(xupd=None, yletter_unit=None):
        upd = dict(zero)
        if xupd:
            for c, v in xupd.items():
                upd[x_of[c]] = v
        if yletter_unit:
            i, d = yletter_unit
            upd[f"y{i}"] = d
        return upd

    nodes = set()
    edges = []
    fresh = [0]

    def mid():
        fresh[0] += 1
        return f"m{fresh[0]}"

    def emit_path(src, dst, letters, xupd):
        """A chain src -> dst spelling `letters` (visible Y updates); the X
        update rides on the first step. Empty encoding: one ε edge."""
        nodes.add(src)
        nodes.add(dst)
        if not letters:
            edges.append(Edge(src, EPSILON, lift(xupd), dst))
            return
        cur = src
        for k, a in enumerate(letters):
            nxt = dst if k == len(letters) - 1 else mid()
            nodes.add(nxt)
            i, d = letter_index(a, n)
            edges.append(Edge(cur, a, lift(xupd if k == 0 else None, (i, d)), nxt))
            cur = nxt

    def pair(p, q):
        return f"({p}|{q})"

    for p in subject.vass.nodes:
        for q in second.vass.nodes:
            nodes.add(pair(p, q))
    for e1 in subject.vass.edges:
        if e1.label == EPSILON:
            for q in second.vass.nodes:
                emit_path(pair(e1.src, q), pair(e1.dst, q), [], e1.update)
    for e2 in second.vass.edges:
        if e2.label == EPSILON:
            enc = _canonical_dyck_encoding(e2.update, ys)
            for p in subject.vass.nodes:
                emit_path(pair(p, e2.src), pair(p, e2.dst), enc, None)
    for e1 in subject.vass.edges:
        if e1.label == EPSILON:
            continue
        for e2 in second.vass.edges:
            if e2.label != e1.label:
                continue
            enc = _canonical_dyck_encoding(e2.update, ys)
            emit_path(pair(e1.src, e2.src), pair(e1.dst, e2.dst), enc, e1.update)

    start, stop = "in", "out"
    preload = {y_of[c]: second.init.valuation[c] for c in ys}
    emit_path(start, pair(subject.init.node, second.init.node),
              _canonical_dyck_encoding(preload, [y_of[c] for c in ys]), None)
    discharge = {y_of[c]: -second.final.valuation[c] for c in ys}
    emit_path(pair(subject.final.node, second.final.node), stop,
              _canonical_dyck_encoding(discharge, [y_of[c] for c in ys]), None)

    vass = Vass(nodes, dyck_alphabet(n), counters, edges)
    init_val = dict(zero)
    final_val = dict(zero)
    for c in subject.vass.counters:
        init_val[x_of[c]] = subject.init.valuation[c]
        final_val[x_of[c]] = subject.final.valuation[c]
    return InitVass(vass, GenConfig(start, init_val), GenConfig(stop, final_val))


def one_counter_loop(delta, label=A1):
    v = Vass(["q"], dyck_alphabet(1), ["c"], [Edge("q", label, {"c": delta}, "q")])
    return v


class TestLetterIndex:
    def test_index_read_without_a_bound(self):
        assert letter_index("a64") == (64, 1)
        assert letter_index("ā12") == (12, -1)
        assert letter_index("a64", 64) == (64, 1)
        assert letter_index("a3", 2) is None

    @pytest.mark.parametrize("letter", ["a0", "a01", "ā", "b1", "a", "a+1", "a 1", "a١", "",
                                        ("a1", True)])
    def test_foreign_letters(self, letter):
        assert letter_index(letter) is None
        assert letter_index(letter, 99) is None


class TestEdgeWalks:
    # p -0-> q, p -1-> r, q -2-> p, q -3-> r, r -4-> q
    OUT = {"p": [(0, "q"), (1, "r")], "q": [(2, "p"), (3, "r")], "r": [(4, "q")]}

    def test_walks_in_pre_order(self):
        assert list(edge_walks(self.OUT, "p", 2)) == [
            ("p", ()), ("q", (0,)), ("p", (0, 2)), ("r", (0, 3)),
            ("r", (1,)), ("q", (1, 4)),
        ]
        assert list(edge_walks(self.OUT, "p", 0)) == [("p", ())]

    def test_simple_paths_within_a_set(self):
        assert list(edge_walks(self.OUT, "p", within={"p", "q", "r"})) == [
            ("p", ()), ("q", (0,)), ("r", (0, 3)), ("r", (1,)), ("q", (1, 4)),
        ]
        assert list(edge_walks(self.OUT, "p", within={"r"})) == [("p", ()), ("r", (1,))]


class TestEffect:
    def test_dyck_word_effect(self):
        assert word_effect([A1, A2, AB1], 2) == (0, 1)

    def test_empty_word(self):
        assert word_effect([], 2) == (0, 0)

    def test_parikh_effect(self):
        # an edge sequence's effect is its Parikh vector {0: 3, 1: 1} times the updates
        v = Vass(
            ["q"], dyck_alphabet(1), ["c"],
            [Edge("q", A1, {"c": 1}, "q"), Edge("q", AB1, {"c": -1}, "q")],
        )
        assert effect((0, 1, 0, 0), v) == {"c": 2}

    def test_unknown_letter_is_structural(self):
        with pytest.raises(StructuralError):
            word_effect(["zz"], 1)

    def test_unknown_edge_is_structural(self):
        v = one_counter_loop(1)
        with pytest.raises(StructuralError):
            effect((7,), v)

    @given(st.lists(st.sampled_from(dyck_alphabet(2)), max_size=16),
           st.lists(st.sampled_from(dyck_alphabet(2)), max_size=16))
    def test_effect_additive(self, u, v):
        total = word_effect(tuple(u) + tuple(v), 2)
        assert total == tuple(a + b for a, b in zip(word_effect(u, 2), word_effect(v, 2)))


class TestSimulate:
    def test_three_increments(self):
        v = one_counter_loop(1)
        run = simulate(v, GenConfig("q", {"c": 0}), [0, 0, 0], frozenset(v.counters))
        assert run.final_config(v).valuation == {"c": 3}

    def test_violation_position(self):
        v = one_counter_loop(-1)
        out = simulate(v, GenConfig("q", {"c": 0}), [0], frozenset(v.counters))
        assert out == Violation(1, "c", -1)

    def test_int_domain_goes_negative(self):
        v = one_counter_loop(-1)
        run = simulate(v, GenConfig("q", {"c": 0}), [0, 0, 0], frozenset())
        assert run.final_config(v).valuation == {"c": -3}

    def test_disconnected_sequence(self):
        v = Vass(["p", "q"], ("a",), ["c"],
                 [Edge("p", "a", {"c": 0}, "q"), Edge("p", "a", {"c": 0}, "q")])
        with pytest.raises(StructuralError):
            simulate(v, GenConfig("p", {"c": 0}), [0, 1], frozenset(v.counters))

    def test_agrees_with_naive_interpreter(self, rng):
        # random instances vs a per-step reference interpreter
        for _ in range(60):
            nodes = [f"n{i}" for i in range(rng.randint(1, 4))]
            counters = [f"c{i}" for i in range(rng.randint(1, 3))]
            edges = [
                Edge(rng.choice(nodes), "a",
                     {c: rng.randint(-2, 2) for c in counters}, rng.choice(nodes))
                for _ in range(rng.randint(1, 5))
            ]
            v = Vass(nodes, ("a",), counters, edges)
            start = GenConfig(rng.choice(nodes), {c: rng.randint(0, 3) for c in counters})
            seq = []
            node = start.node
            for _ in range(rng.randint(0, 12)):
                outs = v.out_edges(node)
                if not outs:
                    break
                i, e = rng.choice(outs)
                seq.append(i)
                node = e.dst
            got = simulate(v, start, seq, frozenset(v.counters))
            # reference: step one edge at a time
            val = dict(start.valuation)
            want = None
            for pos, i in enumerate(seq, start=1):
                e = v.edges[i]
                for c in counters:
                    val[c] += e.update[c]
                bad = [c for c in sorted(counters) if val[c] < 0]
                if bad:
                    want = Violation(pos, bad[0], val[bad[0]])
                    break
            if want is None:
                assert isinstance(got, Run)
                assert got.final_config(v).valuation == val
            else:
                assert got == want


def one_graph(iv: InitVass) -> Mgts:
    """The one-graph MGTS of a one-node VASS, with an all-ω assignment."""
    return Mgts([PrecoveringGraph(iv, {q: {c: OMEGA for c in iv.vass.counters}
                                       for q in iv.vass.nodes})])


class TestAccepts:
    def test_exact(self):
        d = dyck_vas(1)
        run = Run(GenConfig("q", {"y1": 0}), ())
        assert intermediate_accepts(one_graph(d), run, {"y1": 0}, frozenset({"y1"}))

    def test_omega_dominates(self):
        v = one_counter_loop(1)
        iv = InitVass(v, GenConfig("q", {"c": 0}), GenConfig("q", {"c": OMEGA}))
        run = simulate(v, GenConfig("q", {"c": 0}), [0] * 5, frozenset(v.counters))
        assert intermediate_accepts(one_graph(iv), run, {"c": 0}, frozenset(v.counters))

    def test_modulo_family(self):
        v = one_counter_loop(1)
        iv = InitVass(v, GenConfig("q", {"c": 0}), GenConfig("q", {"c": 2}))
        run = simulate(v, GenConfig("q", {"c": 0}), [0] * 5, frozenset(v.counters))
        assert intermediate_accepts(one_graph(iv), run, {"c": 3}, frozenset(v.counters))
        assert not intermediate_accepts(one_graph(iv), run, {"c": 0}, frozenset(v.counters))

    def test_foreign_counter_restriction_is_structural(self):
        d = dyck_vas(1)
        run = Run(GenConfig("q", {"y1": 0}), ())
        with pytest.raises(StructuralError):
            intermediate_accepts(one_graph(d), run, {"zz": 0}, frozenset({"y1"}))


class TestReverse:
    def test_edge_reversal(self):
        e = Edge("p", "a", {"c": 1}, "q")
        assert e.reverse() == Edge("q", "a", {"c": -1}, "p")

    def test_involution(self):
        d = dyck_vas(2)
        assert d.vass.reverse().reverse() == d.vass
        assert sorted(e.key() for e in d.reverse().reverse().vass.edges) == sorted(
            e.key() for e in d.vass.edges
        )

    def test_dyck_reversal_flips_updates(self):
        d = dyck_vas(1)
        rev = d.vass.reverse()
        a1_edges = [e for e in rev.edges if e.label == A1]
        assert a1_edges and all(e.update["y1"] == -1 for e in a1_edges)


class TestDyckVas:
    def test_shape(self):
        d = dyck_vas(1)
        assert len(d.vass.nodes) == 1 and len(d.vass.edges) == 2

    def test_zero_rejected(self):
        with pytest.raises(ArgumentError):
            dyck_vas(0)

    def test_acceptance_matches_textbook_predicate(self):
        # all words <= 12 over n=1, <= 6 over n=2
        for n, max_len in ((1, 12), (2, 6)):
            d = dyck_vas(n)
            words = language_bounded(d, max_len, max_run_len=max_len, value_cap=max_len)
            alphabet = dyck_alphabet(n)

            def all_words(k):
                if k == 0:
                    yield ()
                    return
                for w in all_words(k - 1):
                    for a in alphabet:
                        yield w + (a,)

            expect = set()
            for k in range(max_len + 1):
                for w in all_words(k):
                    if is_dyck_word(w, n):
                        expect.add(w)
            assert words == expect

    def test_visibility(self):
        d = dyck_vas(2)
        assert is_dyck_visible(d.vass, d.vass.counters)

    def test_wrong_update_not_visible(self):
        v = Vass(["q"], dyck_alphabet(1), ["y1"], [Edge("q", A1, {"y1": 0}, "q")])
        assert not is_dyck_visible(v, ["y1"])

    def test_epsilon_with_y_update_not_visible(self):
        v = Vass(["q"], dyck_alphabet(1), ["y1"], [Edge("q", EPSILON, {"y1": 1}, "q")])
        assert not is_dyck_visible(v, ["y1"])


class TestFixDyckProduct:
    def test_self_product_intersects_dyck(self):
        d = dyck_vas(1)
        v = fix_dyck_product(d, d)
        assert is_dyck_visible(v.vass, [c for c in v.vass.counters if c.startswith("y")])
        words = language_bounded(v, 8, max_run_len=12, value_cap=20)
        assert any(is_dyck_word(w, 1) for w in words)
        # oracle: both sides nonempty at bound 8
        assert any(is_dyck_word(w, 1) for w in
                   language_bounded(d, 8, max_run_len=10, value_cap=10))

    def test_empty_second_language(self):
        d = dyck_vas(1)
        second = InitVass(
            Vass(["q"], dyck_alphabet(1), ["c"],
                 [Edge("q", A1, {"c": 0}, "q"), Edge("q", AB1, {"c": 0}, "q")]),
            GenConfig("q", {"c": 0}),
            GenConfig("q", {"c": 1}),
        )
        v = fix_dyck_product(d, second)
        assert language_bounded(v, 6, max_run_len=10, value_cap=20) == set()

    def test_single_edge_pair_path(self):
        mk = lambda: InitVass(
            Vass(["p", "q"], ("a",), ["c"], [Edge("p", "a", {"c": 1}, "q")]),
            GenConfig("p", {"c": 0}),
            GenConfig("q", {"c": 1}),
        )
        v = fix_dyck_product(mk(), mk())
        # the pair's path spells the canonical encoding "a1" of y=(+1)
        labels = sorted(e.label for e in v.vass.edges if e.label != EPSILON)
        assert A1 in labels

    def test_alphabet_mismatch(self):
        d = dyck_vas(1)
        other = InitVass(
            Vass(["q"], ("z",), ["c"], [Edge("q", "z", {"c": 0}, "q")]),
            GenConfig("q", {"c": 0}), GenConfig("q", {"c": 0}),
        )
        with pytest.raises(ArgumentError):
            fix_dyck_product(d, other)


class TestHardnessGadget:
    def unreachable_a(self):
        v = Vass(["q"], ("x",), ["c"], [Edge("q", "x", {"c": -1}, "q")])
        return InitVass(v, GenConfig("q", {"c": 0}), GenConfig("q", {"c": 1}))

    def trivial_a(self):
        v = Vass(["q"], ("x",), ["c"], [])
        return InitVass(v, GenConfig("q", {"c": 0}), GenConfig("q", {"c": 0}))

    def aprime(self):
        v = Vass(["q"], ("a",), ["c"], [Edge("q", "a", {"c": 0}, "q")])
        return InitVass(v, GenConfig("q", {"c": 0}), GenConfig("q", {"c": 0}))

    def test_unreachable_gives_empty(self):
        g = hardness_gadget(self.unreachable_a(), self.aprime())
        assert language_bounded(g, 6, max_run_len=10, value_cap=10) == set()

    def test_reaching_gives_aprime(self):
        g = hardness_gadget(self.trivial_a(), self.aprime())
        got = language_bounded(g, 6, max_run_len=10, value_cap=10)
        want = language_bounded(self.aprime(), 6, max_run_len=8, value_cap=10)
        assert got == want

    def test_bridge_effect(self):
        a = self.trivial_a()
        g = hardness_gadget(a, self.aprime())
        bridge = [e for e in g.vass.edges if e.src == "A.q" and e.dst == "B.q"]
        assert len(bridge) == 1
        assert bridge[0].update["A.c"] == 0  # -c_out with c_out = 0


def test_json_roundtrip():
    d = dyck_vas(2)
    doc = init_vass_to_json(d)
    back = init_vass_from_json(doc)
    assert back.vass == d.vass
    assert back.init.valuation == d.init.valuation
    omega_iv = InitVass(d.vass, d.init, GenConfig("q", {"y1": OMEGA, "y2": 0}))
    doc2 = init_vass_to_json(omega_iv)
    assert doc2["final"]["valuation"]["y1"] == "omega"
    assert init_vass_from_json(doc2).final.valuation["y1"] is OMEGA
