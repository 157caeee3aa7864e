"""Reference computations for the benchmark's checks.

This module shares no code with vasslab: it reads the same JSON documents the
program reads (subjects in the CLI format, NFAs in the `nfa_to_json` format)
and recomputes languages and effects by brute force.
"""

import re

_LETTER = re.compile(r"^(a|ā)([1-9][0-9]*)$")


def parse_letter(letter):
    """(index i >= 1, +1 | -1) of a Dyck letter a_i / ā_i."""
    m = _LETTER.match(letter)
    if m is None:
        raise ValueError(f"not a Dyck letter: {letter!r}")
    return int(m.group(2)), (1 if m.group(1) == "a" else -1)


def letter_effect(word, n):
    """The effect of a word on the n Dyck counters."""
    eff = [0] * n
    for a in word:
        i, d = parse_letter(a)
        if i > n:
            raise ValueError(f"letter {a!r} is outside the {n}-letter-pair alphabet")
        eff[i - 1] += d
    return tuple(eff)


def is_dyck(word, n):
    cur = [0] * n
    for a in word:
        i, d = parse_letter(a)
        cur[i - 1] += d
        if cur[i - 1] < 0:
            return False
    return not any(cur)


def dyck_words(n, max_len):
    """Every Dyck word over n letter pairs of length <= max_len, sorted."""
    letters = [(f"{p}{i}", i - 1, d) for i in range(1, n + 1) for p, d in (("a", 1), ("ā", -1))]
    out = []

    def extend(word, height, open_total):
        if open_total == 0:
            out.append(tuple(word))
        remaining = max_len - len(word)
        for a, i, d in letters:
            # every open letter needs a closing one later
            if height[i] + d < 0 or open_total + d > remaining - 1:
                continue
            height[i] += d
            word.append(a)
            extend(word, height, open_total + d)
            word.pop()
            height[i] -= d

    extend([], [0] * n, 0)
    return sorted(out)


def vass_words(doc, max_len):
    """The words of length <= max_len of an ε-free subject under N-semantics.

    `doc` is a subject in the CLI format. An ω initial entry ranges over every
    start value that can matter: with at most max_len steps, a start value
    above (largest finite final value + max_len * largest update) behaves like
    that bound, so the enumeration is exact.
    """
    counters = list(doc["counters"])
    edges = []
    for e in doc["edges"]:
        if e["label"] == "":
            raise ValueError("vass_words handles ε-free subjects only")
        edges.append((e["from"], e["label"], tuple(e["update"].get(c, 0) for c in counters),
                      e["to"]))
    init, final = doc["init"], doc["final"]
    maxupd = max((abs(x) for _, _, u, _ in edges for x in u), default=0)
    finite_final = [v for v in final["valuation"].values() if v != "omega"]
    omega_cap = max(finite_final, default=0) + max_len * maxupd
    starts = [()]
    for c in counters:
        v = init["valuation"].get(c, 0)
        choices = range(omega_cap + 1) if v == "omega" else [v]
        starts = [s + (x,) for s in starts for x in choices]
    want = [final["valuation"].get(c, 0) for c in counters]
    out = set()

    def walk(node, vals, word):
        if node == final["node"] and all(w == "omega" or v == w for v, w in zip(vals, want)):
            out.add(word)
        if len(word) == max_len:
            return
        for src, a, upd, dst in edges:
            if src != node:
                continue
            nvals = tuple(v + u for v, u in zip(vals, upd))
            if min(nvals, default=0) < 0:
                continue
            walk(dst, nvals, word + (a,))

    for s in starts:
        walk(init["node"], s, ())
    return out


class RefNfa:
    """An NFA with ε moves (label None), simulated on subsets of states."""

    def __init__(self, states, transitions, initial, final):
        self.states = set(states)
        self.initial = set(initial)
        self.final = set(final)
        self.eps = {}
        self.delta = {}
        for p, a, q in transitions:
            if a is None:
                self.eps.setdefault(p, set()).add(q)
            else:
                self.delta.setdefault((p, a), set()).add(q)

    @classmethod
    def from_json(cls, doc):
        """Reads the plain-alphabet `nfa_to_json` document: "" is ε."""
        transitions = []
        for t in doc["transitions"]:
            if t["hash"]:
                raise ValueError("annotated separators are not read here")
            transitions.append((t["from"], t["label"] or None, t["to"]))
        return cls(doc["states"], transitions, doc["initial"], doc["final"])

    def closure(self, states):
        out = set(states)
        stack = list(states)
        while stack:
            for q in self.eps.get(stack.pop(), ()):
                if q not in out:
                    out.add(q)
                    stack.append(q)
        return frozenset(out)

    def accepts(self, word):
        cur = self.closure(self.initial)
        for a in word:
            cur = self.closure({q for p in cur for q in self.delta.get((p, a), ())})
            if not cur:
                return False
        return bool(cur & self.final)

    def words(self, alphabet, max_len):
        """Every accepted word of length <= max_len."""
        out = set()
        layer = {(): self.closure(self.initial)}
        for length in range(max_len + 1):
            nxt = {}
            for w, cur in layer.items():
                if cur & self.final:
                    out.add(w)
                if length == max_len:
                    continue
                for a in alphabet:
                    succ = self.closure({q for p in cur for q in self.delta.get((p, a), ())})
                    if succ:
                        nxt[w + (a,)] = succ
            layer = nxt
        return out


def spell(vec):
    """A word with effect `vec`: for each index, |v| copies of a_i or ā_i."""
    word = []
    for i, v in enumerate(vec, start=1):
        word += [f"a{i}" if v > 0 else f"ā{i}"] * abs(v)
    return tuple(word)
