"""Finite automata over plain and #-annotated Dyck alphabets.

Transition labels: None is ε; a plain letter is a str; an annotated letter is
a (letter, hash) pair. Words are tuples of labels without ε.
"""

from __future__ import annotations

import json

from .errors import ResourceExhausted, StructuralError


def strip_letter(a):
    return a[0] if isinstance(a, tuple) else a


class Nfa:
    """Immutable NFA; states are arbitrary hashable ids (tuples self-describe
    product states in DOT output).

    `eps_closure` and `step` are memoized on the instance, so a subset
    reached again is never recomputed; both memos live and die with the
    automaton. The closure memo maps a frozenset of states to its ε-closure;
    every closure is also stored under itself, so equal ε-closed subsets are
    one object. The step memo `_rows` maps a frozenset of states to its row
    {letter: ε-closed successor}, so `run_word` reads a step it has made
    before with two dict lookups."""

    def __init__(self, states, transitions, initial, final, alphabet=None):
        self.states = frozenset(states)
        self.transitions = frozenset(transitions)
        self.initial = frozenset(initial)
        self.final = frozenset(final)
        if not self.initial <= self.states or not self.final <= self.states:
            raise StructuralError("extremal states not declared")
        letters = set()
        for p, a, q in self.transitions:
            if p not in self.states or q not in self.states:
                raise StructuralError(f"transition endpoint not declared: {(p, a, q)}")
            if a is not None:
                letters.add(a)
        self.alphabet = frozenset(alphabet) if alphabet is not None else frozenset(letters)
        if not letters <= self.alphabet:
            raise StructuralError("transition labels outside the declared alphabet")
        # (state, letter) -> successors and state -> ε-successors, as lists:
        # `transitions` is a set, so no successor repeats
        self._step = {}
        self._eps = {}
        for p, a, q in self.transitions:
            if a is None:
                self._eps.setdefault(p, []).append(q)
            else:
                self._step.setdefault((p, a), []).append(q)
        self._closure_memo = {}  # frozenset(states) -> its ε-closure
        self._rows = {}  # frozenset(states) -> {letter: ε-closed successors}
        self._start = None  # the ε-closure of `initial`, once `run_word` asks

    def eps_closure(self, states) -> frozenset:
        states = frozenset(states)
        closed = self._closure_memo.get(states)
        if closed is None:
            out = set(states)
            stack = list(states)
            while stack:
                p = stack.pop()
                for q in self._eps.get(p, ()):
                    if q not in out:
                        out.add(q)
                        stack.append(q)
            out = frozenset(out)
            # the closure of a closed set is that set; keep the first object
            closed = self._closure_memo.setdefault(out, out)
            self._closure_memo[states] = closed
        return closed

    def step(self, states, letter) -> frozenset:
        states = frozenset(states)
        row = self._rows.get(states)
        if row is None:
            row = self._rows[states] = {}
        closed = row.get(letter)
        if closed is None:
            nxt = set()
            for p in states:
                nxt.update(self._step.get((p, letter), ()))
            closed = row[letter] = self.eps_closure(nxt)
        return closed

    def is_deterministic(self) -> bool:
        if self._eps:
            return False
        return all(len(v) == 1 for v in self._step.values()) and len(self.initial) <= 1

    def is_total(self) -> bool:
        return all((p, a) in self._step for p in self.states for a in self.alphabet)


def run_word(nfa: Nfa, word) -> bool:
    """Whether `nfa` accepts `word`: the ε-closed subsets along the word, each
    step read from the automaton's rows and made by `Nfa.step` only the first
    time."""
    rows, cur = nfa._rows, nfa._start
    if cur is None:
        cur = nfa._start = nfa.eps_closure(nfa.initial)
    for a in word:
        try:
            cur = rows[cur][a]
        except KeyError:
            cur = nfa.step(cur, a)
        if not cur:
            return False
    return not cur.isdisjoint(nfa.final)


def first_mistake(nfa: Nfa, inside, outside):
    """The first word that `nfa` classifies wrongly, with the inclusion it
    breaks: (word, "coverage") for a word of `inside` it rejects, else
    (word, "disjointness") for a word of `outside` it accepts; None when it
    accepts all of `inside` and none of `outside`."""
    for w in inside:
        if not run_word(nfa, w):
            return w, "coverage"
    for w in outside:
        if run_word(nfa, w):
            return w, "disjointness"
    return None


def reachable(initial, moves, state_cap=None, name="state"):
    """The part of a transition system reachable from `initial`: its states in
    the order found and its (state, label, next state) transitions.

    `moves(state)` yields (label, next state) pairs; a depth-first closure
    takes the states of `initial` first to last. Finding more than `state_cap`
    states raises ResourceExhausted("<name> cap <state_cap> exceeded")."""
    states = {}
    transitions = []

    def found(state):
        states[state] = None
        if state_cap is not None and len(states) > state_cap:
            raise ResourceExhausted(f"{name} cap {state_cap} exceeded")

    for state in initial:
        found(state)
    stack = list(reversed(states))
    while stack:
        p = stack.pop()
        for label, q in moves(p):
            transitions.append((p, label, q))
            if q not in states:
                found(q)
                stack.append(q)
    return list(states), transitions


def bounded_words(start, moves, accepting, max_len: int, max_steps: int) -> frozenset:
    """All words of length <= max_len spelled by walks of at most max_steps moves
    from `start` to a state where `accepting` holds.

    `moves(state)` yields (label, next state) pairs, label None for ε. Every
    move costs a step; only a letter costs from the word budget. One memo keyed
    by (state, word budget, step budget) holds each state's accepted suffixes,
    so `moves` runs once per key. States must be hashable."""
    memo = {}

    def walk(state, wbudget, sbudget):
        key = (state, wbudget, sbudget)
        if key in memo:
            return memo[key]
        acc = {()} if accepting(state) else set()
        if sbudget >= 1:
            for label, nxt in moves(state):
                if label is None:
                    acc |= walk(nxt, wbudget, sbudget - 1)
                elif wbudget >= 1:
                    acc |= {(label,) + s for s in walk(nxt, wbudget - 1, sbudget - 1)}
        memo[key] = frozenset(acc)
        return memo[key]

    try:
        return walk(start, max_len, max_steps)
    finally:
        # walk refers to itself; break the cycle so the memo is freed now,
        # not at the next full garbage collection
        del walk


def enumerate_words(nfa: Nfa, max_len: int) -> set:
    """All accepted words of length <= max_len (ε-closure handled)."""
    letters = sorted(nfa.alphabet, key=repr)

    def moves(states):
        for a in letters:
            nxt = nfa.step(states, a)
            if nxt:
                yield a, nxt

    return set(bounded_words(nfa.eps_closure(nfa.initial), moves,
                             lambda states: bool(states & nfa.final), max_len, max_len))


def universal_nfa(alphabet) -> Nfa:
    return Nfa({"u"}, {("u", a, "u") for a in alphabet}, {"u"}, {"u"}, alphabet)


def empty_nfa(alphabet) -> Nfa:
    return Nfa({"e"}, set(), {"e"}, set(), alphabet)


def product(n1: Nfa, n2: Nfa) -> Nfa:
    """L(product) = L(n1) ∩ L(n2); ε moves interleave freely."""
    if n1.alphabet != n2.alphabet:
        raise StructuralError("product needs a shared alphabet")
    alphabet = n1.alphabet

    def moves(state):
        p, q = state
        for a in alphabet:
            for p2 in n1._step.get((p, a), ()):
                for q2 in n2._step.get((q, a), ()):
                    yield a, (p2, q2)
        for p2 in n1._eps.get(p, ()):
            yield None, (p2, q)
        for q2 in n2._eps.get(q, ()):
            yield None, (p, q2)

    initial = {(p, q) for p in n1.initial for q in n2.initial}
    states, transitions = reachable(initial, moves)
    final = {(p, q) for (p, q) in states if p in n1.final and q in n2.final}
    return Nfa(states, transitions, initial, final, alphabet)


def union(nfas, alphabet=None) -> Nfa:
    """Disjoint union; L = ∪ L_i."""
    nfas = list(nfas)
    if alphabet is None:
        alphabet = frozenset().union(*(n.alphabet for n in nfas)) if nfas else frozenset()
    states, transitions, initial, final = set(), set(), set(), set()
    for i, n in enumerate(nfas):
        tag = lambda s, i=i: (i, s)
        states |= {tag(s) for s in n.states}
        transitions |= {(tag(p), a, tag(q)) for p, a, q in n.transitions}
        initial |= {tag(s) for s in n.initial}
        final |= {tag(s) for s in n.final}
    return Nfa(states, transitions, initial, final, alphabet)


def strip_hash(nfa: Nfa) -> Nfa:
    """Drop hash flags from an annotated alphabet; idempotent on plain ones."""
    transitions = {
        (p, None if a is None else strip_letter(a), q) for p, a, q in nfa.transitions
    }
    alphabet = {strip_letter(a) for a in nfa.alphabet}
    return Nfa(nfa.states, transitions, nfa.initial, nfa.final, alphabet)


def nfa_to_json(nfa: Nfa) -> dict:
    def key(s):
        return s if isinstance(s, str) else repr(s)

    trans = []
    for p, a, q in sorted(nfa.transitions, key=repr):
        if a is None:
            letter, flag = "", False
        elif isinstance(a, tuple):
            letter, flag = a
        else:
            letter, flag = a, False
        trans.append({"from": key(p), "label": letter, "hash": flag, "to": key(q)})
    return {
        "states": sorted(key(s) for s in nfa.states),
        "initial": sorted(key(s) for s in nfa.initial),
        "final": sorted(key(s) for s in nfa.final),
        "transitions": trans,
    }


def dump_nfa(nfa: Nfa) -> str:
    return json.dumps(nfa_to_json(nfa), sort_keys=True, indent=2)


def nfa_to_dot(nfa: Nfa, name="nfa") -> str:
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    ids = {s: f"s{i}" for i, s in enumerate(sorted(nfa.states, key=repr))}
    for s, sid in ids.items():
        shape = "doublecircle" if s in nfa.final else "circle"
        lines.append(f'  {sid} [label="{s}", shape={shape}];')
    for s in sorted(nfa.initial, key=repr):
        lines.append(f'  init_{ids[s]} [shape=point]; init_{ids[s]} -> {ids[s]};')
    for p, a, q in sorted(nfa.transitions, key=repr):
        label = "ε" if a is None else (f"{a[0]}#" if isinstance(a, tuple) and a[1] else strip_letter(a))
        lines.append(f'  {ids[p]} -> {ids[q]} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)
