import gc
import weakref
from contextlib import contextmanager
from itertools import product
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vasslab import semilinear
from vasslab.automata import Nfa, dump_nfa, enumerate_words, run_word
from vasslab.errors import ArgumentError, ResourceExhausted
from vasslab.mgts import Dmgts, unfold_paths
from vasslab.model import (
    annotated_alphabet,
    dec_letter,
    dyck_alphabet,
    inc_letter,
    letter_index,
)
from vasslab.semilinear import (
    BasicSeparatorDesc,
    LinearSet,
    RejectedChain,
    approx_automaton,
    approx_member,
    basic_member,
    counterexample_member,
    counterexample_nfa,
    desc_automaton,
    family_cov,
    family_drift,
    family_mod,
    lin_member,
    make_basic_separator,
    move_word,
    nfa_to_linear_cover,
    pos_sum_contains_zero,
    residue_nfa,
)
from vasslab.values import OMEGA

from audits import is_dyck_word, word_effect
from conftest import make_rng

A1, AB1, A2, AB2 = inc_letter(1), dec_letter(1), inc_letter(2), dec_letter(2)


@contextmanager
def collector_disabled():
    """No garbage collection inside the block: what it frees, reference
    counting frees."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


# -- period deduction and the NFA fold (no vasslab verb runs them yet) ----------

def singleton_set(vec) -> LinearSet:
    return LinearSet(tuple(vec), ())


def period_deduction_check(lin: LinearSet, k: int, w_mid, i: int,
                           prefix=(), suffix=()):
    """Extract a non-zero y with y·Δ(w_mid) ∈ P* from an accepting run over
    prefix . w_mid^i . suffix, or None when no repetition closes a cycle.
    The returned scalar is certified by an exact membership check."""
    auto = approx_automaton(lin, k)
    word = tuple(prefix) + tuple(w_mid) * i + tuple(suffix)
    # forward subset states at every position, then one backward pass to pick
    # an accepting run's boundary states between the w_mid blocks
    fwd = [auto.eps_closure(auto.initial)]
    for a in word:
        fwd.append(auto.step(fwd[-1], a))
        if not fwd[-1]:
            return None
    if not fwd[-1] & auto.final:
        return None
    choice = [None] * (len(word) + 1)
    target = sorted(fwd[-1] & auto.final, key=repr)[0]
    choice[len(word)] = target
    for pos in range(len(word) - 1, -1, -1):
        a = word[pos]
        want = choice[pos + 1]
        picked = None
        for p in sorted(fwd[pos], key=repr):
            if want in auto.step({p}, a):
                picked = p
                break
        if picked is None:
            return None
        choice[pos] = picked
    boundaries = []
    for rep in range(i + 1):
        boundaries.append(choice[len(prefix) + rep * len(w_mid)])
    for x in range(len(boundaries)):
        for y in range(x + 1, len(boundaries)):
            if boundaries[x] == boundaries[y]:
                scale = y - x
                n = lin.dim
                eff = word_effect(w_mid, n)
                target_vec = tuple(scale * e for e in eff)
                zero = tuple(0 for _ in range(n))
                if lin_member(LinearSet(zero, lin.periods), target_vec):
                    return scale
                return None
    return None


def fold_nfa_to_dmgts_list(nfa: Nfa, n: int):
    """Break the NFA's control flow into sequences of strongly connected
    components: one DMGTS per simple path from an initial to a final state,
    with X = ∅, μ = 1, all-ω intermediate markings and zero outer markings."""
    if any(a is None for _, a, _ in nfa.transitions):
        raise ArgumentError("folding needs an ε-free NFA")
    counters = [f"y.{i}" for i in range(1, n + 1)]

    def unit(a):
        i, d = letter_index(a, n)
        return {c: (d if c == f"y.{i}" else 0) for c in counters}

    succ = {}
    for p, a, q in nfa.transitions:
        succ.setdefault(p, []).append((a, q))
    edges = [(p, a, unit(a), q)
             for p in sorted(succ, key=repr) for a, q in sorted(succ[p], key=repr)]
    zero = {c: 0 for c in counters}
    omega_all = {c: OMEGA for c in counters}
    mgts_list = unfold_paths(
        edges, sorted(nfa.initial, key=repr), nfa.final.__contains__,
        lambda pos, q: f"f{pos}.{q}", lambda q: omega_all,
        zero, zero, dyck_alphabet(n), counters,
    )
    return [Dmgts(m, 1, (), counters, faithful=True) for m in mgts_list]


def random_sparse_nfa(rng, n=1, max_states=3, max_trans=5):
    k = rng.randint(1, max_states)
    states = [f"s{i}" for i in range(k)]
    letters = dyck_alphabet(n)
    transitions = set()
    for _ in range(rng.randint(1, max_trans)):
        transitions.add((rng.choice(states), rng.choice(letters), rng.choice(states)))
    return Nfa(states, transitions, {states[0]}, {rng.choice(states)}, letters)


@st.composite
def linear_sets(draw, n: int):
    """A linear set in dimension n with entries in [-2, 2], whose periods may
    hold a ± pair, the zero period and a duplicate."""
    vec = st.tuples(*[st.integers(-2, 2)] * n)
    periods = draw(st.lists(vec, max_size=3))
    if len(periods) >= 2 and draw(st.booleans()):
        periods[-1] = tuple(-x for x in periods[0])  # a ± pair
    if draw(st.booleans()):
        periods.append((0,) * n)
    if periods and draw(st.booleans()):
        periods.append(draw(st.sampled_from(periods)))  # a duplicate
    return LinearSet(draw(vec), periods)


@st.composite
def descriptors(draw):
    """R(Λ_1, k)⋯R(Λ_ℓ, k) with ℓ <= 3, k <= 3, in dimension 1 or 2: the
    factors are drawn linear sets and the chains of family_cov, family_mod
    and family_drift, or else a certifiable chain of singletons."""
    n, k = draw(st.integers(1, 2)), draw(st.integers(0, 3))
    vec = st.tuples(*[st.integers(-2, 2)] * n)
    if draw(st.booleans()):
        desc = make_basic_separator([singleton_set(draw(vec))
                                     for _ in range(draw(st.integers(1, 3)))], k)
        assume(isinstance(desc, BasicSeparatorDesc))
        return desc
    families = st.one_of(
        linear_sets(n).map(lambda lin: (lin,)),
        st.builds(lambda kk, i: family_cov(kk, i, n).chain,
                  st.integers(0, 2), st.integers(1, n)),
        st.tuples(st.integers(2, 3), vec).filter(lambda t: any(x % t[0] for x in t[1]))
        .map(lambda t: family_mod(*t).chain),
        st.builds(lambda v: family_drift(v, 0).chain, vec.filter(any)),
    )
    chain, length = [], draw(st.integers(1, 3))
    while len(chain) < length:
        chain.extend(draw(families))
    return BasicSeparatorDesc(k, chain[:length])


class TestApprox:
    def test_even_set(self):
        lin = LinearSet((0,), ((2,), (-2,)))
        assert approx_member(lin, 2, (A1, A1))
        assert not approx_member(lin, 2, (A1,))

    def test_epsilon_needs_zero_in_set(self):
        assert not approx_member(LinearSet((1,), ()), 2, ())
        assert approx_member(LinearSet((0,), ()), 2, ())

    def test_soundness_all_accepted_effects_in_set(self):
        rng = make_rng(41)
        for _ in range(10):
            base = (rng.randint(-2, 2),)
            periods = tuple((rng.randint(-2, 2),) for _ in range(rng.randint(0, 2)))
            lin = LinearSet(base, periods)
            auto = approx_automaton(lin, 3)
            for w in enumerate_words(auto, 5):
                assert lin_member(lin, word_effect(w, 1))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_final_states_are_the_box_members(self, data):
        lin = data.draw(linear_sets(data.draw(st.integers(1, 2))))
        auto = approx_automaton(lin, data.draw(st.integers(0, 3)),
                                annotated=data.draw(st.booleans()))
        assert auto.final == {v for v in auto.states if lin_member(lin, v)}

    # (base, periods, k): independent periods, decided by one integer solve
    INDEPENDENT = [
        ((2,), [(3,)], 6),
        ((-1,), [(-2,)], 6),
        ((0, 0), [(2, 1), (1, 2)], 4),  # determinant 3: not unimodular
        ((1, -1), [(2, 0), (-1, 3)], 4),  # a period of content 2, negative entries
        ((1, 0), [(1, 2)], 4),  # one period in 2D: a consistency row
        ((0, 1, -1), [(1, 0, 2), (0, 2, -1), (-1, 1, 1)], 2),
        ((1, 2), [], 3),  # no periods: the base alone
    ]
    # dependent periods, decided by ILPs over ε-orbits unless their canonical
    # set (see CANONICAL) is all ± pairs or independent
    DEPENDENT = [
        ((0, 0), [(1, 1), (2, 2)], 3),
        ((1,), [(2,), (-2,)], 4),  # closed under negation
        ((1, 0), [(0, 0), (1, 2)], 3),
        ((0, 0), [(1, 0), (0, 1), (1, 1)], 2),
        ((1,), [(2,), (-2,), (3,)], 4),  # closed under negation but for 3
    ]
    # periods closed under negation: a lattice, decided by one integer solve
    NEGATION_CLOSED = [
        ((1, 2), [(3, 0), (-3, 0), (0, 3), (0, -3)], 3),  # family_mod's ±μe_i
        ((0, 0), [(1, 0), (-1, 0), (0, 1), (0, -1)], 2),  # family_cov's second factor
        ((1, 0), [(2, 2), (-2, -2), (1, 3), (-1, -3)], 3),  # index 4 in Z²
        ((1, -1), [(0, 0)], 2),  # the zero period alone
    ]
    # reduced to the canonical period set first: zero periods dropped,
    # duplicates merged, a ± pair one column of either sign
    CANONICAL = [
        ((0, 1), [(-1, 2), (0, 1), (1, -2)], 3),  # a ± pair and an independent period
        ((0, -1), [(1, -2), (-1, 2), (0, 1)], 2),  # (1, −1) and (−1, 1): both signs
        ((1, 1), [(0, 0), (1, 0), (-1, 0)], 2),  # a zero period next to a ± pair
        ((0, 0), [(0, 0), (0, 1), (0, -1), (1, 1)], 2),  # ... and an independent one
        ((0, 0), [(0, 0), (0, 1)], 3),  # dependent only through the zero period
        ((1, 0), [(1, 2), (1, 2), (0, 1)], 2),  # a duplicated period
        ((1,), [(2,), (-2,), (-2,)], 3),  # a duplicated half of a ± pair
        ((0, 0), [(0, 0), (1, 0), (-1, 0), (0, 1), (1, 1)], 2),  # still dependent
        ((10,), [(-1,), (2,)], 12),  # a group, but not closed under negation
    ]

    def _finals_and_ilp_points(self, lin, k, monkeypatch):
        """R(lin, k)'s final states, and the points its build decided with
        lin_member."""
        asked = []

        def spy(lin, vec):
            asked.append(vec)
            return lin_member(lin, vec)

        monkeypatch.setattr(semilinear, "lin_member", spy)
        auto = approx_automaton(lin, k)
        monkeypatch.undo()
        return auto, asked

    @pytest.mark.parametrize("base, periods, k",
                             INDEPENDENT + DEPENDENT + NEGATION_CLOSED + CANONICAL)
    def test_final_states_agree_with_lin_member(self, monkeypatch, base, periods, k):
        lin = LinearSet(base, periods)
        auto, asked = self._finals_and_ilp_points(lin, k, monkeypatch)
        members = {v for v in auto.states if lin_member(lin, v)}
        assert auto.final == members and members
        # the integer solve asks no ILP; only other dependent periods take the orbits
        assert bool(asked) == asks_ilps(periods, len(base))
        if (base, periods, k) in self.INDEPENDENT:
            assert auto.final == period_solve_members(lin, k)

    def test_integer_solve_agrees_with_lin_member_on_random_sets(self, monkeypatch):
        rng = make_rng(43)
        points = {"independent": 0, "closed": 0}
        for t in range(240):
            n = rng.randint(1, 3)
            periods = [tuple(rng.randint(-3, 3) for _ in range(n))
                       for _ in range(rng.randint(0, n))]
            closed = t % 2 == 1
            if closed:
                periods += [tuple(-x for x in p) for p in periods]
            lin = LinearSet(tuple(rng.randint(-3, 3) for _ in range(n)), periods)
            k = 2 if n == 3 else 4
            auto, asked = self._finals_and_ilp_points(lin, k, monkeypatch)
            assert auto.final == {v for v in auto.states if lin_member(lin, v)}
            independent = _period_solve(lin.periods, n) is not None
            if independent:
                assert auto.final == period_solve_members(lin, k)
            if independent or closed:
                assert not asked
                points["closed" if closed else "independent"] += len(auto.states)
        assert points["independent"] > 5000 and points["closed"] > 5000

    def test_automaton_memoized_on_its_linear_set(self):
        with collector_disabled():
            lin = LinearSet((0,), ((2,), (-2,)))
            auto = approx_automaton(lin, 2)
            assert approx_automaton(lin, 2) is auto
            assert approx_automaton(lin, 2, annotated=True) is not auto
            assert lin == LinearSet((0,), ((-2,), (2,))) and "_approx" not in repr(lin)
            assert run_word(auto, (A1, A1)) and auto.transitions and auto.states
            # the memo dies with its set, by reference counting alone: no
            # cycle runs through the automaton, and nothing else keeps it
            ref = weakref.ref(auto)
            del lin, auto
            assert ref() is None


class TestCover:
    def test_one_state_loop(self):
        nfa = Nfa({"s"}, {("s", A1, "s")}, {"s"}, {"s"}, dyck_alphabet(1))
        k, lins = nfa_to_linear_cover(nfa)
        assert k == 4
        assert LinearSet((0,), ((1,),)) in lins

    def test_single_word(self):
        nfa = Nfa({"0", "1"}, {("0", A1, "1")}, {"0"}, {"1"}, dyck_alphabet(1))
        k, lins = nfa_to_linear_cover(nfa)
        assert lins == [LinearSet((1,), ())]

    def test_cover_property(self):
        rng = make_rng(42)
        for _ in range(15):
            nfa = random_sparse_nfa(rng, n=1)
            k, lins = nfa_to_linear_cover(nfa)
            for w in enumerate_words(nfa, 6):
                assert any(approx_member(lin, k, w) for lin in lins), w

    def test_effect_preservation(self):
        rng = make_rng(43)
        for _ in range(8):
            nfa = random_sparse_nfa(rng, n=1, max_trans=4)
            k, lins = nfa_to_linear_cover(nfa)
            nfa_effects = {word_effect(w, 1) for w in enumerate_words(nfa, 6)}
            # accepted effects all lie in some linear set
            for e in nfa_effects:
                assert any(lin_member(lin, e) for lin in lins)

    def test_letter_index_above_63(self):
        nfa = Nfa({"0", "1"}, {("0", "a64", "1")}, {"0"}, {"1"}, {"a64"})
        k, lins = nfa_to_linear_cover(nfa)
        assert lins == [LinearSet(tuple(int(i == 63) for i in range(64)), ())]

    @pytest.mark.parametrize("letter", ["a0", "a01", "ā", "b1"])
    def test_foreign_letter_rejected(self, letter):
        nfa = Nfa({"0", "1"}, {("0", letter, "1")}, {"0"}, {"1"}, {letter})
        with pytest.raises(ArgumentError, match="is not a Dyck letter"):
            nfa_to_linear_cover(nfa)

    def test_epsilon_rejected(self):
        nfa = Nfa({"0", "1"}, {("0", None, "1")}, {"0"}, {"1"}, dyck_alphabet(1))
        with pytest.raises(ArgumentError):
            nfa_to_linear_cover(nfa)

    def test_long_cycle_needs_no_recursion(self):
        # runs of up to 40² + 40 letters: a recursive walk overflows the stack
        nfa = Nfa(range(40), {(q, A1, (q + 1) % 40) for q in range(40)}, {0}, {0},
                  dyck_alphabet(1))
        k, lins = nfa_to_linear_cover(nfa)
        assert k == 41 ** 2
        assert lins == [LinearSet((40 * j,), ((40,),)) for j in range(42)]

    def test_cycle_enumeration_counts_against_run_cap(self, monkeypatch):
        # one run from the isolated initial state, but the complete 9-state
        # component beside it has 125,673 simple cycles
        states = [f"c{i}" for i in range(9)]
        nfa = Nfa(states + ["i"], {(p, A1, q) for p in states for q in states},
                  {"i"}, {"i"}, dyck_alphabet(1))
        monkeypatch.setattr(semilinear, "COVER_STEP_CAP", 1000)
        with pytest.raises(ResourceExhausted, match="cycle enumeration cap 1000"):
            nfa_to_linear_cover(nfa)
        monkeypatch.setattr(semilinear, "COVER_STEP_CAP", 1)
        k, lins = nfa_to_linear_cover(Nfa(["i"], (), {"i"}, {"i"}, dyck_alphabet(1)))
        assert lins == [LinearSet((0,), ())]


class TestPosSum:
    def test_plus_minus_reaches_zero(self):
        assert pos_sum_contains_zero([singleton_set((1,)), singleton_set((-1,))]) is not None

    def test_negative_first_operand_empty(self):
        assert pos_sum_contains_zero([singleton_set((-1,)), singleton_set((1,))]) is None

    def test_left_fold_order_matters(self):
        chain_a = [singleton_set((-1,)), singleton_set((1,)), singleton_set((0,))]
        assert pos_sum_contains_zero(chain_a) is None

    def test_make_basic_separator_rejection_carries_witness(self):
        out = make_basic_separator([singleton_set((1,)), singleton_set((-1,))], 1)
        assert isinstance(out, RejectedChain)
        desc = make_basic_separator([singleton_set((1,))], 1)
        assert isinstance(desc, BasicSeparatorDesc)
        assert not basic_member(desc, ())


class TestFamilies:
    def test_mod(self):
        m = family_mod(2, (1,))
        assert basic_member(m, (A1,))
        assert not basic_member(m, (A1, A1))
        with pytest.raises(ArgumentError):
            family_mod(2, (0,))

    def test_mod_disjoint_from_dyck(self):
        from vasslab.driver import dyck_words

        m = family_mod(2, (1, 0), n=2)
        for w in dyck_words(2, 6):
            assert not basic_member(m, w)

    def test_cov(self):
        k = family_cov(1, 1, 1)
        assert basic_member(k, (AB1,))

    def test_cov_matches_predicate(self):
        # K_{k,i}: counter i dips below zero while never exceeding k before that
        k11 = family_cov(2, 1, 1)

        def predicate(w):
            v = 0
            for pos, a in enumerate(w):
                v += 1 if a == A1 else -1
                if v < 0:
                    return all(
                        0 <= sum(1 if b == A1 else -1 for b in w[:q + 1]) <= 2
                        for q in range(pos)
                    )
            return False

        words = [()]
        for _ in range(5):
            words = [w + (a,) for w in words for a in dyck_alphabet(1)]
            for w in words:
                if predicate(w):
                    assert basic_member(k11, w), w

    def test_drift(self):
        d = family_drift((1, 0), 0)
        assert basic_member(d, (A1,))
        assert not basic_member(d, (AB1, A1))

    def test_negative_k_rejected(self):
        with pytest.raises(ArgumentError):
            family_drift((1,), -1)
        with pytest.raises(ArgumentError):
            family_cov(-3, 1, 1)
        assert family_cov(0, 1, 1).k == 1

    def test_drift_against_predicate(self):
        # bounded cross-check of the defining predicate on words <= 5 (n=1)
        d = family_drift((1,), 2)

        def in_drift(w):
            eff = word_effect(w, 1)[0]
            if eff <= 0:
                return False
            return all(
                sum(1 if a == A1 else -1 for a in w[i:j]) >= -2
                for i in range(len(w)) for j in range(i, len(w) + 1)
            )

        words = [()]
        hits = 0
        for _ in range(5):
            words = [w + (a,) for w in words for a in dyck_alphabet(1)]
        for w in words:
            if in_drift(w):
                assert basic_member(d, w), w
                hits += 1
        assert hits > 0


def _words(n: int, max_len: int):
    return _words_over(dyck_alphabet(n), max_len)


def _words_over(letters, max_len: int):
    words = [()]
    for w in words:
        if len(w) < max_len:
            words.extend(w + (a,) for a in letters)
    return words


def _split_member(desc, word) -> bool:
    """Reference: some split of the word into ℓ factors, the i-th in
    R(Λ_i, k), each factor tested on its own."""
    if len(desc.chain) == 1:
        return approx_member(desc.chain[0], desc.k, word)
    return any(approx_member(desc.chain[0], desc.k, word[:cut])
               and _split_member(BasicSeparatorDesc(desc.k, desc.chain[1:]), word[cut:])
               for cut in range(len(word) + 1))


class TestDescAutomaton:
    def test_chain_automaton_equals_split_points(self):
        descs = [family_cov(1, 1, 1), family_cov(2, 1, 1), family_cov(1, 2, 2),
                 make_basic_separator([singleton_set((1,)), singleton_set((-1,)),
                                       singleton_set((1,))], 2),
                 make_basic_separator([singleton_set((1, 0)), singleton_set((-1, 1))], 2)]
        for desc in descs:
            assert isinstance(desc, BasicSeparatorDesc)
            n = desc.chain[0].dim
            for w in _words(n, 6 if n == 1 else 4):
                assert basic_member(desc, w) == _split_member(desc, w), (desc, w)

    def test_factors_of_two_dimensions_rejected(self):
        desc = BasicSeparatorDesc(1, (singleton_set((1,)), singleton_set((0, 1))))
        with pytest.raises(ArgumentError, match="dimension"):
            desc_automaton(desc)

    def test_one_factor_chain_is_its_approximation(self):
        desc = family_drift((1,), 2)
        assert desc_automaton(desc) is approx_automaton(desc.chain[0], desc.k)
        assert desc_automaton(desc, annotated=True) is approx_automaton(
            desc.chain[0], desc.k, annotated=True)

    def test_automaton_memoized_on_its_descriptor(self):
        desc = family_cov(1, 1, 2)
        auto = desc_automaton(desc)
        assert desc_automaton(desc) is auto
        annotated = desc_automaton(desc, annotated=True)
        assert annotated is not auto and len(annotated.states) == len(auto.states)
        assert {a for a, _ in annotated.alphabet} == auto.alphabet
        # the memo is no part of the descriptor's value, and no linear set
        # of a longer chain keeps a copy of its factor
        assert desc == family_cov(1, 1, 2) and hash(desc) == hash(family_cov(1, 1, 2))
        assert "_automata" not in repr(desc)
        assert all(not lin._approx for lin in desc.chain)
        with collector_disabled():
            assert basic_member(desc, (AB1,)) and auto.transitions and auto.states
            ref = weakref.ref(auto)
            del desc, auto, annotated
            assert ref() is None


class TestApproxNfa:
    @settings(max_examples=150, deadline=None)
    @given(descriptors(), st.booleans())
    def test_equals_the_eager_automaton(self, desc, annotated):
        auto = desc_automaton(desc, annotated)
        want = eager_desc_automaton(desc, annotated)
        # stepping first, from the move tables alone
        words = _words_over(sorted(want.alphabet, key=repr), 4)
        assert [run_word(auto, w) for w in words] == [run_word(want, w) for w in words]
        assert (auto.initial, auto.final, auto.alphabet) == (want.initial, want.final,
                                                              want.alphabet)
        assert (auto.states, auto.transitions) == (want.states, want.transitions)
        assert dump_nfa(auto) == dump_nfa(want)


class TestResidueNfa:
    def test_accepts_the_effects_in_the_residue_classes(self):
        for n, mu, residues, max_len in ((1, 3, {1: 2}, 6), (2, 2, {2: 1}, 4),
                                         (2, 3, {1: 1, 2: -1}, 4)):
            nfa = residue_nfa(mu, residues, n)
            assert nfa.is_deterministic() and nfa.is_total()
            assert len(nfa.states) == mu ** len(residues)
            for w in _words(n, max_len):
                eff = word_effect(w, n)
                want = all((eff[i - 1] - r) % mu == 0 for i, r in residues.items())
                assert run_word(nfa, w) == want, (residues, w)

    def test_modulo_family_for_one_counter(self):
        for mu in (2, 3, 4):
            for r in range(1, mu):
                nfa, desc = residue_nfa(mu, {1: r}, 1), family_mod(mu, (r,))
                for w in _words(1, 6):
                    assert run_word(nfa, w) == basic_member(desc, w), (mu, r, w)

    def test_annotated(self):
        nfa = residue_nfa(2, {1: 1}, 1, annotated=True)
        assert nfa.alphabet == {(a, h) for a in dyck_alphabet(1) for h in (False, True)}
        assert run_word(nfa, ((A1, True),)) and not run_word(nfa, ((A1, False), (AB1, True)))


class TestCounterexample:
    def test_shape_membership(self):
        assert counterexample_member(1, (A1, A1, A2))
        assert not counterexample_member(1, (A2,))

    def test_move_words_members(self):
        for ell in (1, 2, 3):
            for i in range(0, 5):
                assert counterexample_member(ell, move_word(i, ell))

    def test_disjoint_from_dyck(self):
        for ell in (1, 2):
            nfa = counterexample_nfa(ell)
            for w in enumerate_words(nfa, 10):
                assert not is_dyck_word(w, 2)

    def test_induction_inequality(self):
        for ell in (1, 2):
            nfa = counterexample_nfa(ell)
            for w in enumerate_words(nfa, 10):
                vals = [0, 0]
                prefix_ok = True
                for a in w:
                    e = word_effect((a,), 2)
                    vals[0] += e[0]
                    vals[1] += e[1]
                    if vals[0] < 0 or vals[1] < 0:
                        prefix_ok = False
                        break
                if prefix_ok:
                    assert ell * vals[0] >= vals[1] + ell


class TestPeriodDeduction:
    def test_extracts_scale(self):
        lin = LinearSet((0,), ((2,),))
        y = period_deduction_check(lin, 1, (A1,), 3, suffix=(A1,))
        assert y is not None
        assert lin_member(LinearSet((0,), lin.periods), tuple(y * e for e in word_effect((A1,), 1)))

    def test_no_repetition_none(self):
        lin = LinearSet((1,), ())
        assert period_deduction_check(lin, 1, (A1,), 1) in (None, 1)
        # a word that is not accepted at all gives None
        assert period_deduction_check(lin, 1, (AB1,), 3) is None


def test_linear_set_and_descriptor_json():
    import json

    from vasslab.semilinear import linear_set_to_json

    lin = LinearSet((1, -2), ((2, 0), (0, 3)))
    doc = json.loads(json.dumps(linear_set_to_json(lin)))
    assert doc == {"base": [1, -2], "periods": [[0, 3], [2, 0]]}
    assert LinearSet(doc["base"], doc["periods"]) == lin
    # a descriptor's chain, as `basicsep` prints it
    desc = family_mod(2, (1,))
    assert [linear_set_to_json(f) for f in desc.chain] == [{"base": [1], "periods": [[-2], [2]]}]


def test_fold_nfa_preserves_bounded_language():
    from vasslab.mgts import LanguageCaps, side_language_bounded
    from conftest import strip_words

    nfa = Nfa({"0", "1", "2"},
              {("0", A1, "1"), ("1", A1, "2"), ("2", AB1, "1")},
              {"0"}, {"1"}, dyck_alphabet(1))
    want = enumerate_words(nfa, 6)
    got = set()
    for dm in fold_nfa_to_dmgts_list(nfa, 1):
        got |= strip_words(side_language_bounded(
            dm, "x", 6, "nat", LanguageCaps(max_run_len=10, value_cap=24)).words)
    assert got == want


def asks_ilps(periods, n: int) -> bool:
    """Whether R(Λ, k)'s box takes ILPs for these periods: some non-zero
    period lacks its negation, and the non-zero periods, taking each ± pair
    once, are linearly dependent."""
    nonzero = {tuple(p) for p in periods if any(p)}
    signed = {p for p in nonzero if tuple(-x for x in p) not in nonzero}
    columns = signed | {max(p, tuple(-x for x in p)) for p in nonzero - signed}
    return bool(signed) and _period_solve(sorted(columns), n) is None


# -- the independent-period solve as it was before `lattice` ------------------------
# semilinear.py's Gauss–Jordan elimination of the period matrix and its use in
# R(Λ, k)'s final states, verbatim. They stay here for one round as the
# differential oracle of the Hermite normal form solve (ROADMAP aim 3); delete
# them in the next change to `lattice`.

def period_solve_members(lin, k) -> set:
    """The final states of R(lin, k) for linearly independent periods, from
    _period_solve."""
    states = list(product(range(-k, k + 1), repeat=lin.dim))
    zero_rows, pivots = _period_solve(lin.periods, lin.dim)
    keep = range(len(states))
    for row in zero_rows:
        at = _row_values(row, lin.base, k)
        keep = [j for j in keep if at[j] == 0]
    for dc, row in pivots:
        at = _row_values(row, lin.base, k)
        keep = [j for j in keep if at[j] >= 0 and at[j] % dc == 0]
    return {states[j] for j in keep}


def _period_solve(periods, n: int):
    """(zero rows Z, [(D_c, T_c) for each period c]) with, for every w in Z^n,
    w = Σ λ_c p_c for rational λ iff Z·w = 0, and then D_c·λ_c = T_c·w with
    D_c > 0; None when the periods are linearly dependent, where λ is not
    unique. A fraction-free Gauss–Jordan elimination on [P | I], P with the
    periods as columns: each combined row is divided by its content, and the
    identity part records the row operations."""
    m = len(periods)
    rows = [[p[i] for p in periods] + [int(i == j) for j in range(n)] for i in range(n)]
    free = list(range(n))  # the rows that are no period's pivot row yet
    pivot_rows = []
    for c in range(m):
        r = next((r for r in free if rows[r][c]), None)
        if r is None:
            return None  # period c is a rational combination of the earlier ones
        free.remove(r)
        pivot_rows.append(r)
        piv = rows[r]
        for j, row in enumerate(rows):
            if j != r and row[c]:
                combined = [piv[c] * x - row[c] * y for x, y in zip(row, piv)]
                g = gcd(*combined)
                rows[j] = [x // g for x in combined]
    pivots = []
    for c, r in enumerate(pivot_rows):
        sign = 1 if rows[r][c] > 0 else -1
        pivots.append((sign * rows[r][c], [sign * x for x in rows[r][m:]]))
    return [rows[r][m:] for r in free], pivots


def _row_values(row, base, k: int) -> list:
    """row · (v − base) for every point v of [-k, k]^n, in the order of the
    states of R(Λ, k)."""
    at = [0]
    for r, b in zip(row, base):
        at = [a + r * (x - b) for a in at for x in range(-k, k + 1)]
    return at


# -- R(Λ, k) as it was built before `ApproxNfa` ---------------------------------------
# semilinear.py's eager construction of R(Λ, k) and of a longer chain's
# automaton, verbatim but for the `semilinear.` prefixes and the final states,
# which lin_member decides point by point here. They stay for one round as the differential oracle of
# ApproxNfa's move tables (ROADMAP aim 3); delete them in the next change to
# R(Λ, k).

def _approx_parts(lin: LinearSet, k: int, annotated: bool):
    """The states, transitions, initial states, final states and alphabet of
    R(lin, k), built afresh. The states are the box in lexicographic order;
    the points v that a move δ keeps in the box form a sub-box, and v + δ sits
    a fixed number of places after v in that order, so each move's transitions
    come from index arithmetic, sharing one tuple per point."""
    if k < 0:
        raise ArgumentError("k must be >= 0")
    n = lin.dim
    side = 2 * k + 1
    # side^n >= 2^(n * (bit length of side - 1)): a count of 64 bits or more is
    # bounded below by 2^64, not built
    size = side ** n if n * (side.bit_length() - 1) < 64 else 2 ** 64
    if size > semilinear.APPROX_STATE_CAP:
        raise ResourceExhausted(f"R(Λ, {k}) in dimension {n} has {semilinear._count(size)} "
                                f"states, above the cap {semilinear.APPROX_STATE_CAP}")
    shifts = semilinear._letter_shifts(n, range(1, n + 1), annotated)
    shifts.extend((None, tuple(-y for y in p)) for p in lin.periods)
    states = list(product(range(-k, k + 1), repeat=n))
    strides = [side ** (n - 1 - i) for i in range(n)]
    transitions = []
    for lab, delta in shifts:
        # the indices of the points v with -k <= v_i, v_i + δ_i <= k
        idx = [0]
        for d, s in zip(delta, strides):
            lo, hi = max(0, -d), min(side, side - d)
            idx = [j + x for j in idx for x in range(lo * s, hi * s, s)]
        off = sum(d * s for d, s in zip(delta, strides))
        transitions.extend([(states[j], lab, states[j + off]) for j in idx])
    start = (0,) * n
    alphabet = annotated_alphabet(n) if annotated else dyck_alphabet(n)
    return (states, transitions, {start}, {v for v in states if lin_member(lin, v)},
            alphabet)


def eager_desc_automaton(desc: BasicSeparatorDesc, annotated=False) -> Nfa:
    """R(Λ_1,k)...R(Λ_ℓ,k) as an explicit NFA: R(Λ_1, k) for one factor, else
    the factors' states tagged (i, state), with ε moves from the final states
    of factor i to the initial states of factor i + 1."""
    if len(desc.chain) == 1:
        return Nfa(*_approx_parts(desc.chain[0], desc.k, annotated))
    states, transitions, initial, exits = [], [], None, []
    for i, lin in enumerate(desc.chain):
        f_states, f_trans, f_init, f_final, alphabet = _approx_parts(lin, desc.k,
                                                                     annotated)
        entries = [(i, q) for q in f_init]
        states.extend((i, q) for q in f_states)
        transitions.extend(((i, p), a, (i, q)) for p, a, q in f_trans)
        transitions.extend((p, None, q) for p in exits for q in entries)
        initial = initial or entries
        exits = [(i, q) for q in f_final]
    return Nfa(states, transitions, initial, exits, alphabet)
