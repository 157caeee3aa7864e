"""Labeled counter machines with generalized acceptance, the Dyck VAS, and the
reductions that fix one input language to the Dyck language.

Conventions: node and counter ids are strings; the empty edge label is "";
words are tuples of letters; everything is immutable after construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import ArgumentError, StructuralError
from .values import (
    ExactOrOmega,
    int_from_json,
    is_omega,
    valuation_le,
    valuation_nonneg,
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


def letter_index(letter: str, n: int):
    """(counter index 1..n, +1|-1) of a Dyck letter, or None if foreign."""
    for i in range(1, n + 1):
        if letter == inc_letter(i):
            return i, 1
        if letter == dec_letter(i):
            return i, -1
    return None


def word_effect(word, n: int):
    """Componentwise effect of a word over the n-letter Dyck alphabet."""
    eff = [0] * n
    for a in word:
        hit = letter_index(a, n)
        if hit is None:
            raise StructuralError(f"letter {a!r} is not in the {n}-Dyck alphabet")
        i, d = hit
        eff[i - 1] += d
    return tuple(eff)


def is_dyck_word(word, n: int) -> bool:
    """All prefix effects >= 0 and total effect zero."""
    cur = [0] * n
    for a in word:
        i, d = letter_index(a, n) or (None, None)
        if i is None:
            raise StructuralError(f"letter {a!r} is not in the {n}-Dyck alphabet")
        cur[i - 1] += d
        if cur[i - 1] < 0:
            return False
    return all(v == 0 for v in cur)


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

    def configurations(self, vass: Vass):
        node, val = self.start.node, dict(self.start.valuation)
        yield GenConfig(node, val)
        for i in self.edge_seq:
            e = vass.edges[i]
            if e.src != node:
                raise StructuralError(f"edge {i} does not start at {node!r}")
            node, val = e.dst, vec_add(val, e.update)
            yield GenConfig(node, val)

    def word(self, vass: Vass):
        return tuple(vass.edges[i].label for i in self.edge_seq if vass.edges[i].label != EPSILON)

    def final_config(self, vass: Vass) -> GenConfig:
        cfg = None
        for cfg in self.configurations(vass):
            pass
        return cfg


@dataclass(frozen=True)
class Violation:
    position: int
    counter: str
    value: int


@dataclass(frozen=True)
class CounterDomainSpec:
    """Which counters must stay non-negative along a run; {} is Z-semantics."""

    nonneg_counters: frozenset

    def __post_init__(self):
        object.__setattr__(self, "nonneg_counters", frozenset(self.nonneg_counters))


def nat_domain(vass_or_counters) -> CounterDomainSpec:
    cs = vass_or_counters.counters if isinstance(vass_or_counters, Vass) else vass_or_counters
    return CounterDomainSpec(frozenset(cs))


INT_DOMAIN = CounterDomainSpec(frozenset())


def effect(item, *, vass: Vass = None, n: int = None):
    """Effect of a word (over a Dyck alphabet), a run / edge sequence, or a
    Parikh vector of edge counts.

    Words need `n`; runs, edge sequences and Parikh vectors need `vass` and
    yield a counter dict.
    """
    if isinstance(item, Run):
        item = item.edge_seq
    if isinstance(item, dict):
        if vass is None:
            raise ArgumentError("Parikh effect needs the owning vass")
        eff = {c: 0 for c in vass.counters}
        for i, count in item.items():
            if not 0 <= i < len(vass.edges):
                raise StructuralError(f"unknown edge reference {i}")
            for c, x in vass.edges[i].update.items():
                eff[c] += count * x
        return eff
    item = tuple(item)
    if vass is not None and all(isinstance(x, int) for x in item):
        eff = {c: 0 for c in vass.counters}
        for i in item:
            if not 0 <= i < len(vass.edges):
                raise StructuralError(f"unknown edge reference {i}")
            for c, x in vass.edges[i].update.items():
                eff[c] += x
        return eff
    if n is None:
        raise ArgumentError("word effect needs the Dyck dimension n")
    return word_effect(item, n)


def parikh_of(edge_seq) -> dict:
    psi = {}
    for i in edge_seq:
        psi[i] = psi.get(i, 0) + 1
    return psi


def simulate(vass: Vass, start: GenConfig, edges, domain: CounterDomainSpec):
    """Walk `edges` from `start`; returns the Run, or the first Violation of the
    non-negativity domain. Disconnected sequences are structural errors."""
    for v in start.valuation.values():
        if is_omega(v):
            raise ArgumentError("simulate needs a finite start valuation")
    node, val = start.node, dict(start.valuation)
    for pos, i in enumerate(edges, start=1):
        if not 0 <= i < len(vass.edges):
            raise StructuralError(f"unknown edge reference {i}")
        e = vass.edges[i]
        if e.src != node:
            raise StructuralError(f"edge {i} does not continue from {node!r}")
        node, val = e.dst, vec_add(val, e.update)
        for c in sorted(domain.nonneg_counters):
            if val[c] < 0:
                return Violation(pos, c, val[c])
    return Run(start, tuple(edges))


def accepts(init_vass: InitVass, run: Run, orders, domain: CounterDomainSpec) -> bool:
    """True iff the run is valid for the domain and its extremal configurations
    are below init resp. final under every preorder in `orders`."""
    vass = init_vass.vass
    for order in orders if isinstance(orders, (list, tuple)) else [orders]:
        if order.restrict is not None and not order.restrict <= set(vass.counters):
            raise StructuralError("preorder restricted to undeclared counters")
    res = simulate(vass, run.start, run.edge_seq, domain)
    if isinstance(res, Violation):
        return False
    last = run.final_config(vass)
    if run.start.node != init_vass.init.node or last.node != init_vass.final.node:
        return False
    return valuation_le(run.start.valuation, init_vass.init.valuation, orders) and valuation_le(
        last.valuation, init_vass.final.valuation, orders
    )


def language_bounded(init_vass: InitVass, max_word_len: int, domain: CounterDomainSpec,
                     max_run_len: int = None, value_cap: int = 64,
                     orders=None) -> set:
    """All words of accepted runs with word length <= max_word_len, found within
    the run-length and counter-magnitude caps. Exact when the caps dominate the
    reachable value range; an under-approximation beyond them."""
    if max_run_len is None:
        max_run_len = 2 * max_word_len + 4
    if orders is None:
        orders = [ExactOrOmega()]
    vass = init_vass.vass
    starts = _admissible_starts(vass, init_vass.init.valuation, orders, value_cap)
    out = set()
    seen = set()

    def ok_final(node, val):
        return node == init_vass.final.node and valuation_le(val, init_vass.final.valuation, orders)

    def walk(node, val, word, steps):
        key = (node, tuple(val[c] for c in vass.counters), word, steps)
        if key in seen:
            return
        seen.add(key)
        if ok_final(node, val):
            out.add(word)
        if steps >= max_run_len:
            return
        for _, e in vass.out_edges(node):
            nval = vec_add(val, e.update)
            if any(nval[c] < 0 for c in e.update if c in domain.nonneg_counters):
                continue
            if any(abs(v) > value_cap for v in nval.values()):
                continue
            nword = word if e.label == EPSILON else word + (e.label,)
            if len(nword) > max_word_len:
                continue
            walk(e.dst, nval, nword, steps + 1)

    for sval in starts:
        if not valuation_nonneg(sval, domain.nonneg_counters):
            continue
        walk(init_vass.init.node, sval, (), 0)
    return out


def _admissible_starts(vass, init_val, orders, value_cap):
    """Concrete start valuations c with c <= init under `orders`, capped."""
    per_counter = {}
    for c in vass.counters:
        bound = init_val[c]
        candidates = None
        for order in orders if isinstance(orders, (list, tuple)) else [orders]:
            if order.restrict is not None and c not in order.restrict:
                continue
            if is_omega(bound):
                vals = set(range(0, value_cap + 1))
            elif isinstance(order, ExactOrOmega):
                vals = {bound}
            else:  # ModOmega
                vals = {v for v in range(0, value_cap + 1) if (v - bound) % order.mu == 0}
            candidates = vals if candidates is None else candidates & vals
        if candidates is None:  # unconstrained counter
            candidates = set(range(0, value_cap + 1)) if is_omega(bound) else {bound}
        per_counter[c] = sorted(candidates)
    starts = [{}]
    for c in vass.counters:
        starts = [dict(s, **{c: v}) for s in starts for v in per_counter[c]]
    return starts


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


def hardness_gadget(a: InitVass, aprime: InitVass) -> InitVass:
    """L(result) = L(aprime) if `a` reaches, else empty: an ε-relabeled copy of
    `a`, a bridging update -c_out + c'_in, then `aprime`."""
    if any(is_omega(v) for v in a.final.valuation.values()):
        raise ArgumentError("hardness gadget needs a finite final valuation on A")
    if any(is_omega(v) for v in aprime.init.valuation.values()):
        raise ArgumentError("hardness gadget needs a finite initial valuation on A'")
    ren_a_node = {q: f"A.{q}" for q in a.vass.nodes}
    ren_b_node = {q: f"B.{q}" for q in aprime.vass.nodes}
    ren_a_ctr = {c: f"A.{c}" for c in a.vass.counters}
    ren_b_ctr = {c: f"B.{c}" for c in aprime.vass.counters}
    counters = sorted(ren_a_ctr.values()) + sorted(ren_b_ctr.values())
    zero = {c: 0 for c in counters}

    def up(ren, u):
        out = dict(zero)
        for c, v in u.items():
            out[ren[c]] = v
        return out

    edges = [Edge(ren_a_node[e.src], EPSILON, up(ren_a_ctr, e.update), ren_a_node[e.dst])
             for e in a.vass.edges]
    bridge = dict(zero)
    for c in a.vass.counters:
        bridge[ren_a_ctr[c]] = -a.final.valuation[c]
    for c in aprime.vass.counters:
        bridge[ren_b_ctr[c]] = aprime.init.valuation[c]
    edges.append(Edge(ren_a_node[a.final.node], EPSILON, bridge, ren_b_node[aprime.init.node]))
    edges.extend(
        Edge(ren_b_node[e.src], e.label, up(ren_b_ctr, e.update), ren_b_node[e.dst])
        for e in aprime.vass.edges
    )
    vass = Vass(
        list(ren_a_node.values()) + list(ren_b_node.values()),
        aprime.vass.alphabet,
        counters,
        edges,
    )
    init_val = dict(zero)
    for c, v in a.init.valuation.items():
        init_val[ren_a_ctr[c]] = v
    final_val = dict(zero)
    for c, v in aprime.final.valuation.items():
        final_val[ren_b_ctr[c]] = v
    return InitVass(vass, GenConfig(ren_a_node[a.init.node], init_val),
                    GenConfig(ren_b_node[aprime.final.node], final_val))


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


def dump_init_vass(iv: InitVass) -> str:
    return json.dumps(init_vass_to_json(iv), sort_keys=True, indent=2)

