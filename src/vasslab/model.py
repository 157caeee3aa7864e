"""Labeled counter machines with generalized acceptance, their bounded runs and
languages, the Dyck VAS, and the JSON subject format.

Conventions: node and counter ids are strings; the empty edge label is "";
words are tuples of letters; everything is immutable after construction.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from operator import add

from .automata import bounded_words
from .errors import ArgumentError, ResourceExhausted, StructuralError
from .values import (
    clip,
    int_from_json,
    is_omega,
    shifted,
    value_from_json,
    value_to_json,
    vec_add,
)

EPSILON = ""


def inc_letter(i: int) -> str:
    return f"a{i}"


def dec_letter(i: int) -> str:
    return f"ā{i}"  # ā


def dyck_alphabet(n: int):
    """Letters a1, ā1, ..., an, ān in canonical order."""
    out = []
    for i in range(1, n + 1):
        out.append(inc_letter(i))
        out.append(dec_letter(i))
    return tuple(out)


def annotated_alphabet(n: int) -> frozenset:
    """The letters of Σ_n, each with a hash flag: (a, False) and (a, True)."""
    return frozenset((a, h) for a in dyck_alphabet(n) for h in (False, True))


def letter_index(letter: str, n: int = None):
    """(counter index i, +1|-1) of a Dyck letter a<i> or ā<i>, or None if
    foreign: i is written in ASCII decimal without leading zeros, and
    1 <= i <= n unless n is None."""
    if not isinstance(letter, str) or letter[:1] not in ("a", "ā"):
        return None
    digits = letter[1:]
    if not (digits.isascii() and digits.isdigit()) or digits[0] == "0":
        return None
    i = int(digits)
    if n is not None and i > n:
        return None
    return i, 1 if letter[0] == "a" else -1


@dataclass(frozen=True)
class Edge:
    src: str
    label: str
    update: dict
    dst: str

    def __post_init__(self):
        object.__setattr__(self, "update", dict(self.update))

    def key(self):
        return (self.src, self.label, tuple(sorted(self.update.items())), self.dst)

    def __hash__(self):
        return hash(self.key())

    def __eq__(self, other):
        return isinstance(other, Edge) and self.key() == other.key()

    def reverse(self) -> "Edge":
        return Edge(self.dst, self.label, {c: -x for c, x in self.update.items()}, self.src)


@dataclass(frozen=True)
class GenConfig:
    node: str
    valuation: dict

    def __post_init__(self):
        object.__setattr__(self, "valuation", dict(self.valuation))


class Vass:
    """A vector addition system with states."""

    def __init__(self, nodes, alphabet, counters, edges):
        self.nodes = tuple(sorted(set(nodes)))
        self.alphabet = tuple(sorted(set(alphabet)))
        self.counters = tuple(sorted(set(counters)))
        self.edges = tuple(edges)
        self._validate()

    def _validate(self):
        nodeset, alphaset, ctrset = set(self.nodes), set(self.alphabet), set(self.counters)
        for e in self.edges:
            if e.src not in nodeset or e.dst not in nodeset:
                raise StructuralError(f"edge endpoint not declared: {e}")
            if e.label != EPSILON and e.label not in alphaset:
                raise StructuralError(f"edge label not declared: {e.label!r}")
            if set(e.update) != ctrset:
                raise StructuralError(f"edge update not total over counters: {e}")
            for x in e.update.values():
                if is_omega(x):
                    raise StructuralError("edge updates must be finite")

    def out_edges(self, node):
        return [(i, e) for i, e in enumerate(self.edges) if e.src == node]

    def successors(self) -> dict:
        """node -> its (edge index, target) pairs in edge-index order."""
        out = {}
        for i, e in enumerate(self.edges):
            out.setdefault(e.src, []).append((i, e.dst))
        return out

    def reverse(self) -> "Vass":
        return Vass(self.nodes, self.alphabet, self.counters, [e.reverse() for e in self.edges])

    def __eq__(self, other):
        return (
            isinstance(other, Vass)
            and self.nodes == other.nodes
            and self.alphabet == other.alphabet
            and self.counters == other.counters
            and sorted(e.key() for e in self.edges) == sorted(e.key() for e in other.edges)
        )

    def __repr__(self):
        return f"Vass({len(self.nodes)} nodes, {len(self.edges)} edges, counters={self.counters})"


class InitVass:
    """A VASS with generalized initial and final configurations."""

    def __init__(self, vass: Vass, init: GenConfig, final: GenConfig):
        self.vass = vass
        self.init = init
        self.final = final
        for cfg in (init, final):
            if cfg.node not in vass.nodes:
                raise StructuralError(f"extremal node {cfg.node!r} not declared")
            if set(cfg.valuation) != set(vass.counters):
                raise StructuralError("extremal valuation not total over counters")
            for v in cfg.valuation.values():
                if not is_omega(v) and v < 0:
                    raise StructuralError("extremal valuations take values in N or omega")

    def reverse(self) -> "InitVass":
        return InitVass(self.vass.reverse(), self.final, self.init)

    def __repr__(self):
        return f"InitVass({self.vass!r}, init={self.init.node}, final={self.final.node})"


@dataclass(frozen=True)
class Run:
    """A run is its (finite-valued) start plus the edge index sequence; the
    intermediate configurations are derived, never stored."""

    start: GenConfig
    edge_seq: tuple

    def __post_init__(self):
        object.__setattr__(self, "edge_seq", tuple(self.edge_seq))
        for v in self.start.valuation.values():
            if is_omega(v):
                raise StructuralError("run start must be finite-valued")

    def word(self, vass: Vass):
        return tuple(vass.edges[i].label for i in self.edge_seq if vass.edges[i].label != EPSILON)

    def final_config(self, vass: Vass) -> GenConfig:
        node, val = self.start.node, dict(self.start.valuation)
        for i in self.edge_seq:
            e = vass.edges[i]
            if e.src != node:
                raise StructuralError(f"edge {i} does not start at {node!r}")
            node, val = e.dst, vec_add(val, e.update)
        return GenConfig(node, val)


def effect(edge_seq, vass: Vass) -> dict:
    """The effect of a sequence of edge ids of `vass`, as a counter dict."""
    eff = {c: 0 for c in vass.counters}
    for i in edge_seq:
        if not 0 <= i < len(vass.edges):
            raise StructuralError(f"unknown edge reference {i}")
        for c, x in vass.edges[i].update.items():
            eff[c] += x
    return eff


def parikh_of(edge_seq) -> dict:
    psi = {}
    for i in edge_seq:
        psi[i] = psi.get(i, 0) + 1
    return psi


def search_run(vass: Vass, node, vals, counters, goal, max_len=None, value_cap=None,
               state_cap=None):
    """Breadth-first search for a run from (node, vals), `vals` aligned with
    `counters`, keeping those counters >= 0 and ignoring the others. Returns
    (path, cut): the edge-index path of the first configuration (in FIFO
    order, successors in edge-index order) with goal(node, vals) true, or
    None; `cut` is whether a value above `value_cap` or a path longer than
    `max_len` dropped an unseen successor, so that None is no proof.
    States are deduplicated on (node, vals); more than `state_cap` of them
    raise ResourceExhausted."""
    out = {}
    for i, e in enumerate(vass.edges):
        out.setdefault(e.src, []).append((i, e.dst, tuple(e.update[c] for c in counters)))
    start = (node, tuple(vals))
    seen = {start: ()}
    queue = deque([start])
    cut = False
    while queue:
        state = queue.popleft()
        path = seen[state]
        node, vals = state
        if goal(node, vals):
            return path, cut
        for i, dst, delta in out.get(node, ()):
            nvals = tuple(map(add, vals, delta))
            if any(v < 0 for v in nvals):
                continue
            if value_cap is not None and any(v > value_cap for v in nvals):
                cut = True
                continue
            key = (dst, nvals)
            if key in seen:
                continue
            if max_len is not None and len(path) >= max_len:
                cut = True
                continue
            if state_cap is not None and len(seen) > state_cap:
                raise ResourceExhausted(f"run search state cap {state_cap} exceeded")
            seen[key] = path + (i,)
            queue.append(key)
    return None, cut


def edge_walks(out: dict, node, max_len: int = None, within=None):
    """Every path from `node`, where `out` maps a node to its (key, next node)
    moves, as (end node, key tuple) in pre-order: a path, then its extensions
    by each move in `out` order. A path grows by a move while it has fewer
    than `max_len` moves (None: no bound) and, when `within` is given, only
    into a node of `within` that is not on it yet, so that every path is
    simple. With `Vass.successors()` the keys are edge indices."""
    free = None if within is None else set(within) - {node}
    yield node, ()
    keys = []
    stack = [(node, iter(out.get(node, ()) if max_len != 0 else ()))]
    while stack:
        for key, dst in stack[-1][1]:
            if free is not None:
                if dst not in free:
                    continue
                free.remove(dst)
            keys.append(key)
            yield dst, tuple(keys)
            grows = max_len is None or len(keys) < max_len
            stack.append((dst, iter(out.get(dst, ()) if grows else ())))
            break
        else:
            end, _ = stack.pop()
            if stack:
                keys.pop()
                if free is not None:
                    free.add(end)


def language_bounded(init_vass: InitVass, max_word_len: int, max_run_len: int = None, *,
                     value_cap: int) -> set:
    """All words of N-runs from init to final with word length <= max_word_len,
    found within the run-length cap and with every counter in [0, value_cap]
    after each edge. Exact when the caps dominate the reachable value range; an
    under-approximation beyond them.

    One `bounded_words` walk covers every initial valuation at once: an ω
    initial value is the range 0..value_cap, a finite one a single value, and
    each edge shifts the ranges and clips them to [0, value_cap]."""
    if max_run_len is None:
        max_run_len = 2 * max_word_len + 4
    vass = init_vass.vass
    counters = vass.counters
    final = init_vass.final
    out = {}
    for e in vass.edges:
        shifts = [(k, e.update[c]) for k, c in enumerate(counters) if e.update[c]]
        label = None if e.label == EPSILON else e.label
        out.setdefault(e.src, []).append((label, e.dst, shifts))
    targets = [(k, final.valuation[c]) for k, c in enumerate(counters)
               if not is_omega(final.valuation[c])]

    def moves(state):
        node, val = state
        for label, dst, shifts in out.get(node, ()):
            nval = tuple(clip(r, 0, value_cap) for r in shifted(val, shifts))
            if all(nval):
                yield label, (dst, nval)

    def accepting(state):
        node, val = state
        return node == final.node and all(v in val[k] for k, v in targets)

    start = tuple(range(0, value_cap + 1) if is_omega(v) else range(v, v + 1)
                  for v in (init_vass.init.valuation[c] for c in counters))
    return set(bounded_words((init_vass.init.node, start), moves, accepting,
                             max_word_len, max_run_len))


def dyck_vas(n: int) -> InitVass:
    """The one-node VAS accepting the n-letter Dyck language."""
    if n < 1:
        raise ArgumentError("dyck_vas needs n >= 1")
    counters = [f"y{i}" for i in range(1, n + 1)]
    edges = []
    for i in range(1, n + 1):
        unit = {c: 0 for c in counters}
        unit[f"y{i}"] = 1
        edges.append(Edge("q", inc_letter(i), unit, "q"))
        edges.append(Edge("q", dec_letter(i), {c: -x for c, x in unit.items()}, "q"))
    vass = Vass(["q"], dyck_alphabet(n), counters, edges)
    zero = GenConfig("q", {c: 0 for c in counters})
    return InitVass(vass, zero, zero)


def is_dyck_visible(vass: Vass, y_counters) -> bool:
    """True iff every a_i / ā_i edge does exactly +/- unit on the i-th Y counter
    and nothing else on Y, and ε edges touch no Y counter."""
    ys = list(y_counters)
    n = len(ys)
    for e in vass.edges:
        want = {c: 0 for c in ys}
        if e.label != EPSILON:
            hit = letter_index(e.label, n)
            if hit is None:
                return False
            i, d = hit
            want[ys[i - 1]] = d
        for c in ys:
            if e.update.get(c, 0) != want[c]:
                return False
    return True


# JSON document format: see README; the empty label is encoded as "".

def init_vass_to_json(iv: InitVass) -> dict:
    return {
        "nodes": list(iv.vass.nodes),
        "alphabet": list(iv.vass.alphabet),
        "counters": list(iv.vass.counters),
        "edges": [
            {"from": e.src, "label": e.label,
             "update": {c: x for c, x in sorted(e.update.items())}, "to": e.dst}
            for e in iv.vass.edges
        ],
        "init": {"node": iv.init.node,
                 "valuation": {c: value_to_json(v) for c, v in sorted(iv.init.valuation.items())}},
        "final": {"node": iv.final.node,
                  "valuation": {c: value_to_json(v) for c, v in sorted(iv.final.valuation.items())}},
    }


_SUBJECT_KEYS = ("nodes", "alphabet", "counters", "edges", "init", "final")


def json_object(doc, keys, what) -> dict:
    """`doc` if it is a JSON object holding `keys`; ArgumentError otherwise."""
    if not isinstance(doc, dict):
        raise ArgumentError(f"{what} must be a JSON object")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise ArgumentError(f"{what} lacks {', '.join(missing)}")
    return doc


def json_name(v, what) -> str:
    """`v` if it is a JSON string; ArgumentError otherwise."""
    if not isinstance(v, str):
        raise ArgumentError(f"{what} must be a JSON string, not {json.dumps(v)}")
    return v


def init_vass_from_json(doc: dict) -> InitVass:
    json_object(doc, _SUBJECT_KEYS, "a subject")
    for key in ("nodes", "alphabet", "counters", "edges"):
        if not isinstance(doc[key], list):
            raise ArgumentError(f"subject {key} must be a JSON array")
    for key, what in (("nodes", "a node"), ("alphabet", "a letter"), ("counters", "a counter")):
        for name in doc[key]:
            json_name(name, what)
    counters = doc["counters"]
    edges = []
    for e in doc["edges"]:
        json_object(e, ("from", "label", "update", "to"), "a subject edge")
        for key in ("from", "label", "to"):
            json_name(e[key], f"an edge {key!r}")
        update = {c: 0 for c in counters}
        given = json_object(e["update"], (), "an edge update")
        update.update({c: int_from_json(v) for c, v in given.items()})
        edges.append(Edge(e["from"], e["label"], update, e["to"]))
    vass = Vass(doc["nodes"], doc["alphabet"], counters, edges)

    def cfg(d):
        json_object(d, ("node", "valuation"), "a configuration")
        val = {c: 0 for c in counters}
        given = json_object(d["valuation"], (), "a valuation")
        val.update({c: value_from_json(v) for c, v in given.items()})
        return GenConfig(json_name(d["node"], "a configuration node"), val)

    return InitVass(vass, cfg(doc["init"]), cfg(doc["final"]))
