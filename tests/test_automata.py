from itertools import combinations, product as words_over

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vasslab.automata import (
    Nfa,
    empty_nfa,
    enumerate_words,
    nfa_to_dot,
    nfa_to_json,
    product,
    reachable,
    run_word,
    strip_hash,
    union,
    universal_nfa,
)
from vasslab.errors import ArgumentError, StructuralError

from audits import dfa_profile
from conftest import make_rng


# -- helpers no vasslab verb runs ------------------------------------------------

def is_empty(nfa: Nfa) -> bool:
    """No final state is reachable from an initial one."""
    out = {}
    for p, a, q in nfa.transitions:
        out.setdefault(p, []).append((a, q))
    states, _ = reachable(nfa.initial, lambda p: out.get(p, ()))
    return nfa.final.isdisjoint(states)


def nfa_from_json(doc: dict) -> Nfa:
    transitions = set()
    annotated = any(t["hash"] for t in doc["transitions"])
    for t in doc["transitions"]:
        if t["label"] == "":
            a = None
        elif annotated:
            a = (t["label"], bool(t["hash"]))
        else:
            a = t["label"]
        transitions.add((t["from"], a, t["to"]))
    return Nfa(doc["states"], transitions, doc["initial"], doc["final"])


def random_nfa(rng, letters=("a", "b"), max_states=4, eps=False):
    k = rng.randint(1, max_states)
    states = [f"s{i}" for i in range(k)]
    labels = list(letters) + ([None] if eps else [])
    transitions = {
        (rng.choice(states), rng.choice(labels), rng.choice(states))
        for _ in range(rng.randint(1, 6))
    }
    initial = {states[0]}
    final = {rng.choice(states)}
    return Nfa(states, transitions, initial, final, letters)


@st.composite
def nfas(draw):
    """1-4 states, letters a and b and ε moves, non-empty initial and final sets."""
    states = list(range(draw(st.integers(1, 4))))
    state = st.sampled_from(states)
    transitions = draw(st.sets(st.tuples(state, st.sampled_from(("a", "b", None)), state),
                               min_size=1, max_size=10))
    return Nfa(states, transitions, draw(st.sets(state, min_size=1)),
               draw(st.sets(state, min_size=1)), ("a", "b"))


def accepts_by_search(nfa, word) -> bool:
    """Acceptance read from `nfa.transitions` alone, sharing no code with the
    memoized subset stepping: a search over (state, position) pairs, where an
    ε move keeps the position and a letter move reads word[position]."""
    seen = {(p, 0) for p in nfa.initial}
    stack = list(seen)
    while stack:
        p, i = stack.pop()
        if i == len(word) and p in nfa.final:
            return True
        for src, a, q in nfa.transitions:
            if src != p:
                continue
            if a is None:
                nxt = (q, i)
            elif i < len(word) and a == word[i]:
                nxt = (q, i + 1)
            else:
                continue
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


@settings(max_examples=300)
@given(nfas(), st.integers(0, 5))
def test_enumerate_words_equals_brute_force(nfa, max_len):
    words = [w for k in range(max_len + 1) for w in words_over(("a", "b"), repeat=k)]
    want = {w for w in words if accepts_by_search(nfa, w)}
    # "c" is outside the alphabet: a word ending in it is rejected, not an error
    assert {w for w in words + [w + ("c",) for w in words] if run_word(nfa, w)} == want
    assert enumerate_words(nfa, max_len) == want


def test_memoized_stepping_reads_any_collection():
    n = Nfa({0, 1, 2}, {(0, "a", 1), (1, None, 2), (2, "a", 0)}, {0}, {2}, ("a",))
    args = ({0, 1}, [1, 0, 1], frozenset({0, 1}))
    assert {n.eps_closure(s) for s in args} == {frozenset({0, 1, 2})}
    assert {n.step(s, "a") for s in args} == {frozenset({1, 2})}
    assert all(type(n.eps_closure(s)) is frozenset and type(n.step(s, "a")) is frozenset
               for s in args)


@settings(max_examples=200)
@given(nfas())
def test_equal_closed_subsets_are_one_object(nfa):
    # every subset's closure, then a step from each: equal results, one object
    subsets = [set(c) for k in range(len(nfa.states) + 1)
               for c in combinations(sorted(nfa.states), k)]
    closures = [nfa.eps_closure(s) for s in subsets]
    closures += [nfa.step(c, a) for c in closures for a in ("a", "b")]
    first = {}
    for c in closures:
        assert first.setdefault(c, c) is c


@settings(max_examples=200)
@given(nfas(), st.lists(st.sampled_from(("a", "b", "c")), max_size=6))
def test_run_word_leaves_its_steps_in_the_row_memo(nfa, word):
    accepted = run_word(nfa, word)
    assert accepted == accepts_by_search(nfa, tuple(word))
    closures = []
    closure = nfa.eps_closure
    nfa.eps_closure = lambda states: closures.append(states) or closure(states)
    # a step from every subset the run visited, and the run again: no closure
    cur = closure(nfa.initial)
    for a in word:
        cur = nfa.step(cur, a)
        if not cur:
            break
    assert run_word(nfa, word) == accepted
    assert closures == []


def test_memoized_stepping_ignores_later_mutation():
    n = Nfa({0, 1, 2}, {(0, "a", 1), (1, None, 2), (2, "a", 0)}, {0}, {2}, ("a",))
    states = {0}
    assert n.eps_closure(states) == {0}
    assert n.step(states, "a") == {1, 2}
    states.add(2)
    assert n.eps_closure(states) == {0, 2}
    assert n.step(states, "a") == {0, 1, 2}
    assert n.eps_closure({0}) == {0}
    assert n.step({0}, "a") == {1, 2}


def test_empty_nfa_language():
    assert enumerate_words(empty_nfa({"a"}), 3) == set()
    assert is_empty(empty_nfa({"a"}))


@settings(max_examples=200)
@given(nfas())
def test_is_empty_iff_no_short_word(nfa):
    # a shortest accepting path repeats no state, so it reads fewer than |Q| letters
    assert is_empty(nfa) == (not enumerate_words(nfa, len(nfa.states)))


def test_single_loop():
    n = Nfa({"s"}, {("s", "a", "s")}, {"s"}, {"s"})
    assert enumerate_words(n, 3) == {(), ("a",), ("a", "a"), ("a", "a", "a")}


def test_epsilon_closure_membership():
    n = Nfa({"1", "2", "3"}, {("1", None, "2"), ("2", "a", "3")}, {"1"}, {"3"})
    assert run_word(n, ("a",))
    assert not run_word(n, ())


def test_product_with_universal():
    rng = make_rng(1)
    for _ in range(20):
        n = random_nfa(rng)
        u = universal_nfa(n.alphabet)
        assert enumerate_words(product(n, u), 6) == enumerate_words(n, 6)


def test_product_disjoint_singletons():
    n1 = Nfa({"0", "1"}, {("0", "a", "1")}, {"0"}, {"1"})
    n2 = Nfa({"0", "1"}, {("0", "b", "1")}, {"0"}, {"1"}, alphabet={"a", "b"})
    n1b = Nfa(n1.states, n1.transitions, n1.initial, n1.final, {"a", "b"})
    assert is_empty(product(n1b, n2))


def test_product_enumerate_consistency():
    rng = make_rng(2)
    for _ in range(25):
        x, y = random_nfa(rng, eps=True), random_nfa(rng, eps=True)
        x = Nfa(x.states, x.transitions, x.initial, x.final, ("a", "b"))
        y = Nfa(y.states, y.transitions, y.initial, y.final, ("a", "b"))
        assert enumerate_words(product(x, y), 6) == (
            enumerate_words(x, 6) & enumerate_words(y, 6)
        )


def test_strip_hash():
    ann = Nfa({"1", "2"}, {("1", ("a", True), "2"), ("2", ("b", False), "1")}, {"1"}, {"2"})
    plain = strip_hash(ann)
    assert enumerate_words(plain, 3) == {("a",), ("a", "b", "a")}
    again = strip_hash(plain)
    assert enumerate_words(again, 3) == enumerate_words(plain, 3)


def test_strip_hash_projects_language():
    ann = Nfa({"1", "2", "3"},
              {("1", ("a", True), "2"), ("1", ("a", False), "3")},
              {"1"}, {"2", "3"})
    assert enumerate_words(strip_hash(ann), 2) == {("a",)}


class TestDfaProfile:
    def test_one_state_all_equal(self):
        d = Nfa({"s"}, {("s", "a", "s")}, {"s"}, {"s"})
        assert dfa_profile(d, ("a", "a", "a")) == dfa_profile(d, ())

    def test_parity(self):
        d = Nfa({"e", "o"}, {("e", "a", "o"), ("o", "a", "e")}, {"e"}, {"e"})
        assert dfa_profile(d, ("a", "a")) == dfa_profile(d, ())
        assert dfa_profile(d, ("a",)) != dfa_profile(d, ())

    def test_nondeterministic_rejected(self):
        n = Nfa({"1", "2"}, {("1", "a", "1"), ("1", "a", "2"), ("2", "a", "2")}, {"1"}, {"2"})
        with pytest.raises(ArgumentError):
            dfa_profile(n, ("a",))

    def test_finite_index(self):
        # number of distinct profiles <= |Q|^|Q| on small total DFAs
        rng = make_rng(3)
        for _ in range(10):
            k = rng.randint(1, 3)
            states = [f"s{i}" for i in range(k)]
            trans = set()
            for s in states:
                for a in ("a", "b"):
                    trans.add((s, a, rng.choice(states)))
            d = Nfa(states, trans, {states[0]}, {states[0]}, ("a", "b"))
            profiles = set()
            words = [()]
            for _ in range(6):
                words = [w + (a,) for w in words for a in ("a", "b")]
                for w in words:
                    profiles.add(dfa_profile(d, w))
            assert len(profiles) <= k ** k


def test_pumping_profile_equality():
    # diff^N vs diff^{N + c N!} pumping words are ~A-equivalent
    from math import factorial

    rng = make_rng(4)
    for _ in range(20):
        k = rng.randint(1, 3)
        states = [f"s{i}" for i in range(k)]
        trans = set()
        for s in states:
            for a in ("a", "b"):
                trans.add((s, a, rng.choice(states)))
        d = Nfa(states, trans, {states[0]}, set(), ("a", "b"))
        diff = tuple(rng.choice(("a", "b")) for _ in range(rng.randint(1, 3)))
        c = rng.randint(1, 3)
        n = len(states)
        w1 = diff * n
        w2 = diff * (n + c * factorial(n))
        assert dfa_profile(d, w1) == dfa_profile(d, w2)


def test_union():
    n1 = Nfa({"0", "1"}, {("0", "a", "1")}, {"0"}, {"1"}, {"a", "b"})
    n2 = Nfa({"0", "1"}, {("0", "b", "1")}, {"0"}, {"1"}, {"a", "b"})
    assert enumerate_words(union([n1, n2]), 2) == {("a",), ("b",)}


def test_json_and_dot():
    n = Nfa({"1", "2"}, {("1", ("a", True), "2")}, {"1"}, {"2"})
    doc = nfa_to_json(n)
    assert doc["transitions"][0]["hash"] is True
    back = nfa_from_json(doc)
    assert enumerate_words(back, 2) == enumerate_words(n, 2)
    assert "digraph" in nfa_to_dot(n)


def test_undeclared_endpoint_is_structural():
    with pytest.raises(StructuralError):
        Nfa({"1"}, {("1", "a", "2")}, {"1"}, set())
