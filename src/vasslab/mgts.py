"""Precovering graphs, MGTS, and DMGTS: decorated strongly connected components,
their sequences, and the doubly-marked variant with modulus and counter split.

An MGTS is viewed as one combined VASS whose edges interleave the graphs' edges
with bridging updates; runs are runs of that VASS.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd

from .automata import bounded_words, reachable
from .errors import ArgumentError, InvariantViolation, ResourceExhausted, StructuralError
from .model import (
    EPSILON,
    Edge,
    GenConfig,
    InitVass,
    Run,
    Vass,
    dyck_alphabet,
    edge_walks,
    init_vass_from_json,
    init_vass_to_json,
    is_dyck_visible,
    json_name,
    json_object,
    letter_index,
)
from .solver import ILP_NODES
from .values import (
    OMEGA,
    clip,
    gate_ok,
    int_from_json,
    is_omega,
    omega_set,
    shifted,
    value_from_json,
    value_to_json,
)


@dataclass(frozen=True)
class Update:
    """A bridging update between precovering graphs."""

    label: str
    update: dict

    def __post_init__(self):
        object.__setattr__(self, "update", dict(self.update))

    def reverse(self) -> "Update":
        return Update(self.label, {c: -x for c, x in self.update.items()})


class PrecoveringGraph:
    """A strongly connected initialized VASS whose init node equals its final
    node (the root), decorated by a consistent node assignment."""

    def __init__(self, base: InitVass, assignment: dict):
        self.base = base
        self.assignment = {q: dict(v) for q, v in assignment.items()}
        self.root = base.init.node
        root_assign = self.assignment.get(self.root, {})
        self.concrete = frozenset(
            c for c in base.vass.counters if not is_omega(root_assign.get(c, OMEGA))
        )
        self.omega_counters = frozenset(base.vass.counters) - self.concrete

    @property
    def vass(self):
        return self.base.vass

    @property
    def in_marking(self):
        return self.base.init.valuation

    @property
    def out_marking(self):
        return self.base.final.valuation

    def reverse(self) -> "PrecoveringGraph":
        return PrecoveringGraph(self.base.reverse(), self.assignment)

    def __repr__(self):
        return f"PrecoveringGraph(root={self.root!r}, |E|={len(self.vass.edges)}, omega={sorted(self.omega_counters)})"


def is_strongly_connected(vass: Vass) -> bool:
    if not vass.nodes:
        return False
    return sccs(vass.successors(), vass.nodes[:1])[vass.nodes[0]] == set(vass.nodes)


def validate_precovering(p: PrecoveringGraph) -> list:
    """The consistency conditions; an empty list means ok."""
    out = []
    vass = p.vass
    if p.base.init.node != p.base.final.node:
        out.append("init node differs from final node")
    if not is_strongly_connected(vass):
        out.append("base VASS is not strongly connected")
    if set(p.assignment) != set(vass.nodes):
        out.append("assignment is not total over nodes")
        return out
    for q, val in p.assignment.items():
        if set(val) != set(vass.counters):
            out.append(f"assignment at {q!r} not total over counters")
            return out
    for q, val in p.assignment.items():
        if {c for c in vass.counters if not is_omega(val[c])} != p.concrete:
            out.append(f"nodes disagree on the concretely decorated counters at {q!r}")
        if any(not is_omega(v) and v < 0 for v in val.values()):
            out.append(f"assignment at {q!r} takes a negative value")
    for c in p.concrete:
        if p.in_marking[c] != p.assignment[p.root][c] or p.out_marking[c] != p.assignment[p.root][c]:
            out.append(f"root decoration and extremal markings differ on {c!r}")
    for e in vass.edges:
        for c in p.concrete:
            if p.assignment[e.dst][c] - p.assignment[e.src][c] != e.update[c]:
                out.append(f"assignment incoherent with edge update on {c!r}: {e}")
    for c in omega_set(p.in_marking) | omega_set(p.out_marking):
        if c not in p.omega_counters:
            out.append(f"extremal omega on concretely decorated counter {c!r}")
    return out


class Mgts:
    """An alternating sequence of precovering graphs and bridging updates."""

    def __init__(self, graphs, bridges=()):
        self.graphs = tuple(graphs)
        self.bridges = tuple(bridges)
        if not self.graphs:
            raise ArgumentError("an MGTS has at least one precovering graph")
        if len(self.bridges) != len(self.graphs) - 1:
            raise ArgumentError("bridge count must be graph count - 1")
        counters = self.graphs[0].vass.counters
        alphabet = set(self.graphs[0].vass.alphabet)
        seen_nodes = set()
        for g in self.graphs:
            if g.vass.counters != counters:
                raise StructuralError("graphs disagree on counters")
            alphabet |= set(g.vass.alphabet)
            if seen_nodes & set(g.vass.nodes):
                raise StructuralError("graph node sets are not pairwise disjoint")
            seen_nodes |= set(g.vass.nodes)
        self.counters = counters
        self.alphabet = tuple(sorted(alphabet))
        self._combined = None

    @property
    def in_marking(self):
        return self.graphs[0].in_marking

    @property
    def out_marking(self):
        return self.graphs[-1].out_marking

    def combined(self):
        """The MGTS as one initialized VASS plus the origin of each edge:
        ("g", gi, local_index) or ("b", bi)."""
        if self._combined is not None:
            return self._combined
        edges, origin = [], []
        for gi, g in enumerate(self.graphs):
            for ei, e in enumerate(g.vass.edges):
                edges.append(e)
                origin.append(("g", gi, ei))
            if gi < len(self.bridges):
                u = self.bridges[gi]
                upd = {c: u.update.get(c, 0) for c in self.counters}
                edges.append(Edge(g.root, u.label, upd, self.graphs[gi + 1].root))
                origin.append(("b", gi))
        nodes = [q for g in self.graphs for q in g.vass.nodes]
        vass = Vass(nodes, self.alphabet, self.counters, edges)
        iv = InitVass(
            vass,
            GenConfig(self.graphs[0].root, self.in_marking),
            GenConfig(self.graphs[-1].root, self.out_marking),
        )
        self._combined = (iv, tuple(origin))
        return self._combined

    def reverse(self) -> "Mgts":
        return Mgts(
            tuple(g.reverse() for g in reversed(self.graphs)),
            tuple(u.reverse() for u in reversed(self.bridges)),
        )

    def __repr__(self):
        return f"Mgts({len(self.graphs)} graphs)"


class Dmgts:
    """An MGTS with modulus mu and a counter partition X ⊎ Y; Y-updates are
    Dyck-visible. `faithful` is a provenance flag, never decided semantically."""

    def __init__(self, mgts: Mgts, mu: int, x_counters, y_counters, faithful=False):
        if mu < 1:
            raise ArgumentError("mu must be >= 1")
        self.mgts = mgts
        self.mu = mu
        self.x_counters = tuple(sorted(x_counters))
        self.y_counters = tuple(y_counters)
        self.faithful = bool(faithful)
        if sorted(self.x_counters + self.y_counters) != list(mgts.counters):
            raise StructuralError("X and Y must partition the MGTS counters")
        iv, _ = mgts.combined()
        if self.y_counters and not is_dyck_visible(iv.vass, self.y_counters):
            raise StructuralError("Y-updates must be Dyck-visible")

    @property
    def graphs(self):
        return self.mgts.graphs

    @property
    def bridges(self):
        return self.mgts.bridges

    def with_mgts(self, mgts: Mgts, mu=None, faithful=None) -> "Dmgts":
        return Dmgts(
            mgts,
            self.mu if mu is None else mu,
            self.x_counters,
            self.y_counters,
            self.faithful if faithful is None else faithful,
        )

    def side_counters(self, side):
        if side == "x":
            return self.x_counters
        if side == "y":
            return self.y_counters
        raise ArgumentError(f"unknown side {side!r}")

    def __repr__(self):
        return f"Dmgts({len(self.graphs)} graphs, mu={self.mu})"


@dataclass(frozen=True)
class MgtsContext:
    """An MGTS with exactly one hole; substitute() splices an MGTS back in."""

    left_graphs: tuple
    left_bridges: tuple
    right_bridges: tuple
    right_graphs: tuple

    @classmethod
    def around(cls, mgts: Mgts, gi: int) -> "MgtsContext":
        return cls(
            tuple(mgts.graphs[:gi]),
            tuple(mgts.bridges[:gi]),
            tuple(mgts.bridges[gi:]),
            tuple(mgts.graphs[gi + 1:]),
        )

    def is_empty(self) -> bool:
        return not self.left_graphs and not self.right_graphs


def substitute(context: MgtsContext, inner):
    """Splice an Mgts or Dmgts into the hole; mu comes from the inserted DMGTS."""
    if isinstance(inner, Dmgts):
        mgts = substitute(context, inner.mgts)
        return Dmgts(mgts, inner.mu, inner.x_counters, inner.y_counters, inner.faithful)
    graphs = context.left_graphs + inner.graphs + context.right_graphs
    bridges = context.left_bridges + inner.bridges + context.right_bridges
    return Mgts(graphs, bridges)


# -- acceptance ----------------------------------------------------------------

def side_gates(source, side) -> dict:
    """The acceptance gates of one side of an MGTS or DMGTS, as a map from
    counter to the modulus that `gate_ok` reads: "x" is exact (0) on X and
    modulo mu on Y, "y" is exact on Y, "full" is exact on every counter; a
    counter absent from the map is not compared. An N-run of the side keeps
    the map's counters >= 0, a Z-run none."""
    if side == "full":
        return dict.fromkeys(source.mgts.counters if isinstance(source, Dmgts)
                             else source.counters, 0)
    if side not in ("x", "y"):
        raise ArgumentError(f"unknown side {side!r}")
    if not isinstance(source, Dmgts):
        raise ArgumentError("sided systems need a DMGTS with a counter partition")
    gates = dict.fromkeys(source.side_counters(side), 0)
    if side == "x":
        gates.update(dict.fromkeys(source.y_counters, source.mu))
    return gates


def _gates_pass(val: dict, marking: dict, gates: dict) -> bool:
    return all(gate_ok(val[c], marking[c], m) for c, m in gates.items())


def intermediate_accepts(mgts: Mgts, run: Run, gates: dict, nonneg: frozenset):
    """The run's visits to the graphs, one (entry valuation, edge indices,
    exit valuation) per graph, if the run is intermediate accepting, else
    None: it keeps the counters in `nonneg` >= 0 after every edge, and enters
    and leaves every graph, in order, at its root with a valuation that is
    >= 0 and passes `gates` against the graph's in- resp. out-marking.

    One pass: each boundary is checked as the run passes it, so a run that
    stops short of the last graph's root is not accepted."""
    if gates.keys() - set(mgts.counters):
        raise StructuralError("gates name undeclared counters")
    iv, origins = mgts.combined()
    edges, graphs = iv.vass.edges, mgts.graphs

    def boundary_ok(val, marking):
        return all(v >= 0 for v in val.values()) and _gates_pass(val, marking, gates)

    node, val = run.start.node, run.start.valuation
    if node != graphs[0].root or not boundary_ok(val, graphs[0].in_marking):
        return None
    visits, entry, seq = [], val, []
    for i in run.edge_seq:
        if not 0 <= i < len(edges):
            raise StructuralError(f"unknown edge reference {i}")
        e = edges[i]
        if e.src != node:
            raise StructuralError(f"edge {i} does not continue from {node!r}")
        nval = {c: v + e.update[c] for c, v in val.items()}
        if any(nval[c] < 0 for c in nonneg):
            return None
        if origins[i][0] == "b":  # leave graph gi at its root, enter gi + 1 at its root
            gi = len(visits)
            if not (boundary_ok(val, graphs[gi].out_marking)
                    and boundary_ok(nval, graphs[gi + 1].in_marking)):
                return None
            visits.append((entry, tuple(seq), val))
            entry, seq = nval, []
        else:
            seq.append(i)
        node, val = e.dst, nval
    if node != graphs[-1].root or not boundary_ok(val, graphs[-1].out_marking):
        return None
    visits.append((entry, tuple(seq), val))
    return visits


@dataclass(frozen=True)
class BoundedLanguage:
    words: frozenset
    truncated: bool


@dataclass(frozen=True)
class LanguageCaps:
    """Caps of a bounded side-language walk: edges per run, and |value| of each
    gated counter. The walk carries each counter as a range of values, so its
    cost does not grow as value_cap^k with the number k of counters."""

    max_run_len: int = 12
    value_cap: int = 40


@dataclass
class PipelineCaps:
    """The caps that `decompose`, `z_separability` and the `separate` pipeline
    take: words up to max_word_len are verified; runs, counter values, ILP
    nodes, observer-product states and refine variants are bounded; pump_k
    bounds the pumping of an intersection witness."""

    max_word_len: int = 10
    max_run_len: int = 12
    counter_cap: int = 40
    ilp_nodes: int = ILP_NODES
    observer_states: int = 100_000
    variants: int = 10_000
    pump_k: int = 64

    def language(self) -> LanguageCaps:
        return LanguageCaps(max_run_len=self.max_run_len, value_cap=self.counter_cap)


def _residue(r: range, m: int, mu: int) -> range:
    """The members of r (positive step) congruent to m modulo mu."""
    period = mu // gcd(r.step, mu)
    for i in range(min(period, len(r))):
        if (r[i] - m) % mu == 0:
            return r[i::period]
    return r[0:0]


def side_language_bounded(dmgts: Dmgts, side, max_len: int, kind="nat",
                          caps: LanguageCaps = LanguageCaps()) -> BoundedLanguage:
    """Bounded enumeration of the annotated side language: all λ_#(ρ) with
    |word| <= max_len found within the caps. Exact up to the caps; the flag
    reports whether any branch was cut off.

    One `bounded_words` walk covers every entry valuation at once: each
    counter holds a range of values (step 1, step mu, or one value), and every
    gate, the non-negativity domain and the value cap trim the ranges counter
    by counter in `moves`. A range state's words are the union of its members'
    words, so the result equals one concrete walk per entry valuation, at a
    cost that does not grow as value_cap^k."""
    mgts = dmgts.mgts
    gates = side_gates(dmgts, side)
    domain = frozenset() if kind == "int" else frozenset(gates)
    iv, origins = mgts.combined()
    vass = iv.vass
    counters = vass.counters
    index = {c: k for k, c in enumerate(counters)}
    truncated = [False]
    gated_idx = [index[c] for c in counters if c in gates]
    cap = caps.value_cap

    def shifts(update):
        return [(index[c], update.get(c, 0)) for c in counters if update.get(c, 0)]

    def letter(label, hashed):
        return None if label == EPSILON else (label, hashed)

    out_edges_by_graph = {}
    for i, org in enumerate(origins):
        if org[0] == "g":
            e = vass.edges[i]
            out_edges_by_graph.setdefault((org[1], e.src), []).append(
                (letter(e.label, False), e.dst, shifts(e.update),
                 [index[c] for c in e.update if c in domain]))
    bridge_moves = {org[1]: shifts(vass.edges[i].update)
                    for i, org in enumerate(origins) if org[0] == "b"}

    def gate_checks(marking):
        return [(index[c], m, marking[c]) for c, m in gates.items() if not is_omega(marking[c])]

    in_checks = [gate_checks(g.in_marking) for g in mgts.graphs]
    out_checks = [gate_checks(g.out_marking) for g in mgts.graphs]
    last = len(mgts.graphs) - 1

    def gate(val, checks):
        """The members of val that are >= 0 and pass every gate, or None if
        there are none."""
        rs = [clip(r, 0) for r in val]
        for k, m, bound in checks:
            rs[k] = clip(rs[k], bound, bound) if m == 0 else _residue(rs[k], bound, m)
        return tuple(rs) if all(rs) else None

    def accepting(state):
        gi, node, val = state
        return (gi == last and node == mgts.graphs[gi].root
                and gate(val, out_checks[gi]) is not None)

    def moves(state):
        gi, node, val = state
        if gi < last and node == mgts.graphs[gi].root:
            exit_val = gate(val, out_checks[gi])
            if exit_val is not None:
                nval = gate(shifted(exit_val, bridge_moves[gi]), in_checks[gi + 1])
                if nval is not None:
                    yield (letter(mgts.bridges[gi].label, True),
                           (gi + 1, mgts.graphs[gi + 1].root, nval))
        for label, dst, edge_moves, dom in out_edges_by_graph.get((gi, node), ()):
            nval = shifted(val, edge_moves)
            for k in dom:
                nval[k] = clip(nval[k], 0)
            if not all(nval):
                continue
            for k in gated_idx:
                r = clip(nval[k], -cap, cap)
                if len(r) < len(nval[k]):
                    truncated[0] = True
                nval[k] = r
            if all(nval):
                yield label, (gi, dst, tuple(nval))

    words = frozenset()
    g0 = mgts.graphs[0]
    entry = _entry_ranges(counters, g0.in_marking, gates, cap, _free_seed(vass, caps.max_run_len))
    sval = gate([entry[c] for c in counters], in_checks[0])
    if sval is not None:
        words = bounded_words((0, g0.root, sval), moves, accepting, max_len, caps.max_run_len)
    return BoundedLanguage(words, truncated[0])


def _free_seed(vass, run_len):
    """An entry value that no run of run_len edges drives below zero. Counters
    compared by no gate are monotone (raising them only helps), so this one
    value stands for all of theirs."""
    maxupd = max((abs(x) for e in vass.edges for x in e.update.values()), default=0) or 1
    return run_len * maxupd


def _entry_ranges(counters, in_marking, gates, value_cap, free_seed):
    """Per counter, the range of entry values that pass its entry gate,
    capped; a counter without a gate gets the one value free_seed (see
    `_free_seed`)."""
    per = {}
    for c in counters:
        bound, m = in_marking[c], gates.get(c)
        if m is None:
            per[c] = range(free_seed, free_seed + 1)
        elif is_omega(bound):
            per[c] = range(0, value_cap + 1)
        elif m == 0:
            per[c] = range(bound, bound + 1)
        else:
            per[c] = _residue(range(0, value_cap + 1), bound, m)
    return per


# -- constructions -------------------------------------------------------------

def sccs(succ, starts) -> dict:
    """state -> frozenset of its strongly connected component, for every state
    reachable from `starts` (iterative Tarjan); succ: state -> [(k, next)]."""
    index, low, comp = {}, {}, {}
    stack, on_stack = [], {}  # on_stack: state -> its position on `stack`

    def push(v):
        index[v] = low[v] = len(index)
        on_stack[v] = len(stack)
        stack.append(v)
        return v, iter(succ.get(v, ()))

    for root in starts:
        if root in index:
            continue
        work = [push(root)]
        while work:
            v, it = work[-1]
            for _, w in it:
                if w not in index:
                    work.append(push(w))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    scc = frozenset(stack[on_stack[v]:])
                    del stack[on_stack[v]:]
                    for w in scc:
                        del on_stack[w]
                        comp[w] = scc
    return comp


PATH_CAP = 2000  # simple accepted paths of one unfolding
PATH_STEP_CAP = 2_000_000  # search steps of one unfolding


def unfold_paths(edges, starts, is_final, name, marking, first_in, last_out,
                 alphabet, counters, path_cap=PATH_CAP) -> list:
    """Unfold a graph into MGTS, one per simple path from a start to a final
    state: the i-th state of the path becomes a precovering graph of its
    strongly connected component, rooted there, and the path's edges become
    the bridges.

    `edges` is an ordered list of (src, label, update, dst); successors and
    the edges of each component graph follow its order, and `starts` are
    tried in the given order. `name(pos, state)` names the node of `state` in
    the graph at path position `pos`. `marking(state)` is the assignment of
    the state's node and the marking between path positions; `first_in` and
    `last_out` are the outer markings. Raises ResourceExhausted past
    `path_cap` paths or PATH_STEP_CAP search steps."""
    succ, back = {}, {}
    for k, (src, _, _, dst) in enumerate(edges):
        succ.setdefault(src, []).append((k, dst))
        back.setdefault(dst, []).append((k, src))
    comp = sccs(succ, starts)
    inner = {}  # component -> its edges, in list order
    for edge in edges:
        if edge[0] in comp and edge[3] in comp[edge[0]]:
            inner.setdefault(comp[edge[0]], []).append(edge)
    can_reach = set(reachable([s for s in comp if is_final(s)], lambda s: back.get(s, ()))[0])

    paths = []
    steps = 0
    for start in starts:
        if start not in can_reach:
            continue
        for end, ks in edge_walks(succ, start, within=can_reach):
            steps += 2  # the search enters and leaves each path
            if steps > PATH_STEP_CAP:
                raise ResourceExhausted(f"simple path step cap {PATH_STEP_CAP} exceeded")
            if is_final(end):
                paths.append(([start, *(edges[k][3] for k in ks)], ks))
                if len(paths) > path_cap:
                    raise ResourceExhausted(f"simple path cap {path_cap} exceeded")

    out = []
    for states, ks in paths:
        graphs = []
        for pos, st in enumerate(states):
            scc = comp[st]
            node = {u: name(pos, u) for u in sorted(scc, key=repr)}
            vass = Vass(node.values(), alphabet, counters,
                        [Edge(node[s], a, upd, node[d]) for s, a, upd, d in inner.get(scc, ())])
            in_val = first_in if pos == 0 else marking(st)
            out_val = last_out if pos == len(states) - 1 else marking(st)
            base = InitVass(vass, GenConfig(node[st], in_val), GenConfig(node[st], out_val))
            g = PrecoveringGraph(base, {node[u]: marking(u) for u in node})
            bad = validate_precovering(g)
            if bad:
                raise InvariantViolation(f"unfolding produced an invalid graph: {bad}")
            graphs.append(g)
        out.append(Mgts(graphs, [Update(edges[k][1], edges[k][2]) for k in ks]))
    return out


def fold_to_mgts_list(iv: InitVass) -> list:
    """Break an initialized VASS into MGTS: one per simple init-to-final node
    path, with per-state SCC precovering graphs (all-ω assignment, all-ω
    intermediate markings) joined by the path edges; outer markings are the
    input's. Run-preserving: cycles at a node stay within its SCC."""
    vass = iv.vass
    omega_all = {c: OMEGA for c in vass.counters}
    return unfold_paths(
        [(e.src, e.label, e.update, e.dst) for e in vass.edges],
        [iv.init.node], lambda q: q == iv.final.node,
        lambda pos, q: f"f{pos}.{q}", lambda q: omega_all,
        iv.init.valuation, iv.final.valuation, vass.alphabet, vass.counters,
    )


def fold_states(iv: InitVass) -> InitVass:
    """Standard VASS -> VAS folding: one token counter per node."""
    node_ctr = {q: f"st.{q}" for q in iv.vass.nodes}
    counters = list(iv.vass.counters) + sorted(node_ctr.values())
    zero = {c: 0 for c in counters}
    edges = []
    for e in iv.vass.edges:
        upd = dict(zero)
        upd.update(e.update)
        upd[node_ctr[e.src]] += -1
        upd[node_ctr[e.dst]] += 1
        edges.append(Edge("q", e.label, upd, "q"))
    vass = Vass(["q"], iv.vass.alphabet, counters, edges)

    def cfg(old: GenConfig):
        val = dict(zero)
        val.update(old.valuation)
        val[node_ctr[old.node]] = 1
        return GenConfig("q", val)

    return InitVass(vass, cfg(iv.init), cfg(iv.final))


def _infer_dyck_dim(alphabet) -> int:
    n = len(alphabet) // 2
    if set(alphabet) != set(dyck_alphabet(n)):
        raise ArgumentError("alphabet is not a Dyck alphabet a1..an, ā1..ān")
    return n


def _dyck_product(subject: InitVass, n: int, name):
    """The subject with its counters renamed x.c and one counter y.i per
    letter pair of Σ_n, which each edge moves by its letter's effect; Y is 0
    at both ends and `name(q)` names the node of q. Returns the product and
    its X and Y counters."""
    xs = [f"x.{c}" for c in subject.vass.counters]
    ys = [f"y.{i}" for i in range(1, n + 1)]
    zero = dict.fromkeys(sorted(xs) + ys, 0)
    edges = []
    for e in subject.vass.edges:
        upd = dict(zero)
        for c, v in e.update.items():
            upd[f"x.{c}"] = v
        if e.label != EPSILON:
            i, d = letter_index(e.label, n)
            upd[f"y.{i}"] = d
        edges.append(Edge(name(e.src), e.label, upd, name(e.dst)))
    vass = Vass([name(q) for q in subject.vass.nodes], dyck_alphabet(n), zero, edges)

    def cfg(old):
        val = dict(zero)
        for c, v in old.valuation.items():
            val[f"x.{c}"] = v
        return GenConfig(name(old.node), val)

    return InitVass(vass, cfg(subject.init), cfg(subject.final)), xs, ys


def initial_dmgts(subject: InitVass) -> Dmgts:
    """The starting DMGTS of a subject with one node, or with several and no
    self-loop: a single all-ω root-loop graph whose X-side language equals
    L(subject). A multi-node subject is folded into a VAS first, with one
    token counter per node. The fold would add words at a self-loop, whose
    token update is 0 and so fires at every node: such a subject raises
    StructuralError, and `initial_parts` unfolds it instead."""
    n = _infer_dyck_dim(subject.vass.alphabet)
    if len(subject.vass.nodes) > 1:
        loop = next((e.src for e in subject.vass.edges if e.src == e.dst), None)
        if loop is not None:
            raise StructuralError(f"the VAS fold adds words at the self-loop of node {loop!r}")
        subject = fold_states(subject)
    base, xs, ys = _dyck_product(subject, n, lambda q: "r")
    graph = PrecoveringGraph(base, {"r": dict.fromkeys(base.init.valuation, OMEGA)})
    bad = validate_precovering(graph)
    if bad:
        raise StructuralError(f"initial graph invalid: {bad}")
    return Dmgts(Mgts([graph]), 1, xs, ys, faithful=True)


def initial_parts(subject: InitVass) -> list:
    """The starting DMGTS of the separability pipeline, whose X-side languages
    together make up L(subject): `[initial_dmgts(subject)]` for a one-node
    subject; otherwise the subject's Dyck product cut by `fold_to_mgts_list`
    into one DMGTS per simple init-to-final node path, each with μ = 1,
    all-ω intermediate markings and the faithful flag set."""
    if len(subject.vass.nodes) == 1:
        return [initial_dmgts(subject)]
    product, xs, ys = _dyck_product(subject, _infer_dyck_dim(subject.vass.alphabet),
                                    lambda q: q)
    return [Dmgts(m, 1, xs, ys, faithful=True) for m in fold_to_mgts_list(product)]


@dataclass(frozen=True)
class PerfectnessDiagnosis:
    """Names the first failing perfectness condition under the refine priority:
    case "i" (io var outside support), "ii" (edge outside support), "iii"
    (missing covering sequence), or "faithful-flag"."""

    case: str
    graph: int = None
    side: str = None
    counter: str = None
    io: str = None
    direction: str = None


def perfectness_diagnosis(dmgts: Dmgts):
    """None if perfect, else the first failing condition (deterministic order:
    case i < ii < iii; graphs in order; side x before y; counters sorted;
    in before out).

    A side whose `side_gates` map is empty (the Y side of a DMGTS without Y
    counters) is vacuous and skipped, so its support takes no LPs. Its
    system has no fixed io variable and no congruence. A precovering graph
    is strongly connected, so a sum of cycles through every edge is a
    circulation positive on every edge, and the free io variables absorb
    every effect: entry values large enough keep them all positive. So the
    support is every variable, neither case i nor case ii holds on that
    side, and x = 0 on the edges with such entries solves its system."""
    from .chareq import build_char, support

    sides = [side for side in ("x", "y") if side_gates(dmgts, side)]
    sup = {side: support(build_char(dmgts, side)) for side in sides}
    for gi, g in enumerate(dmgts.graphs):
        for side in sides:
            for c in sorted(dmgts.side_counters(side)):
                for io in ("in", "out"):
                    marking = g.in_marking if io == "in" else g.out_marking
                    if is_omega(marking[c]) and ("io", gi, io, c) not in sup[side]:
                        return PerfectnessDiagnosis("i", gi, side, c, io)
    for gi, g in enumerate(dmgts.graphs):
        for side in sides:
            for ei in range(len(g.vass.edges)):
                if ("edge", gi, ei) not in sup[side]:
                    return PerfectnessDiagnosis("ii", gi, side)
    from .structure import covering_sequences, down_covering

    for gi, g in enumerate(dmgts.graphs):
        if covering_sequences(g) is None:
            return PerfectnessDiagnosis("iii", gi, direction="up")
        if down_covering(g) is None:
            return PerfectnessDiagnosis("iii", gi, direction="down")
    if not dmgts.faithful:
        return PerfectnessDiagnosis("faithful-flag")
    return None


# -- serialization --------------------------------------------------------------

def precovering_to_json(p: PrecoveringGraph) -> dict:
    return {
        "base": init_vass_to_json(p.base),
        "assignment": {
            q: {c: value_to_json(v) for c, v in sorted(val.items())}
            for q, val in sorted(p.assignment.items())
        },
    }


def precovering_from_json(doc: dict) -> PrecoveringGraph:
    json_object(doc, ("base", "assignment"), "a precovering graph")
    base = init_vass_from_json(doc["base"])
    assignment = {
        q: {c: value_from_json(v) for c, v in json_object(val, (), "a node assignment").items()}
        for q, val in json_object(doc["assignment"], (), "an assignment").items()
    }
    return PrecoveringGraph(base, assignment)


def dmgts_to_json(d: Dmgts) -> dict:
    return {
        "mu": d.mu,
        "x_counters": list(d.x_counters),
        "y_counters": list(d.y_counters),
        "faithful": d.faithful,
        "graphs": [precovering_to_json(g) for g in d.graphs],
        "bridges": [
            {"label": u.label, "hash": True,
             "update": {c: v for c, v in sorted(u.update.items())}}
            for u in d.bridges
        ],
    }


def dmgts_from_json(doc: dict) -> Dmgts:
    json_object(doc, ("mu", "x_counters", "y_counters", "graphs", "bridges"), "a DMGTS")
    for key in ("x_counters", "y_counters", "graphs", "bridges"):
        if not isinstance(doc[key], list):
            raise ArgumentError(f"DMGTS {key} must be a JSON array")
    for c in doc["x_counters"] + doc["y_counters"]:
        json_name(c, "a counter")
    graphs = [precovering_from_json(g) for g in doc["graphs"]]
    for gi, g in enumerate(graphs):
        bad = validate_precovering(g)
        if bad:
            raise ArgumentError(f"DMGTS graph {gi} is not a precovering graph: {'; '.join(bad)}")
    bridges = []
    for b in doc["bridges"]:
        json_object(b, ("label", "update"), "a bridge")
        update = json_object(b["update"], (), "a bridge update")
        bridges.append(Update(json_name(b["label"], "a bridge label"),
                              {c: int_from_json(v) for c, v in update.items()}))
    return Dmgts(Mgts(graphs, bridges), int_from_json(doc["mu"]), doc["x_counters"],
                 doc["y_counters"], doc.get("faithful", False))


def canonical_key(d: Dmgts) -> str:
    return json.dumps(dmgts_to_json(d), sort_keys=True)
