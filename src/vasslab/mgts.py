"""Precovering graphs, MGTS, and DMGTS: decorated strongly connected components,
their sequences, and the doubly-marked variant with modulus and counter split.

An MGTS is viewed as one combined VASS whose edges interleave the graphs' edges
with bridging updates; runs are runs of that VASS.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd

from .errors import ArgumentError, InvariantViolation, ResourceExhausted, StructuralError
from .model import (
    EPSILON,
    Edge,
    GenConfig,
    InitVass,
    Run,
    Vass,
    dyck_alphabet,
    init_vass_from_json,
    init_vass_to_json,
    is_dyck_visible,
    json_name,
    json_object,
    letter_index,
)
from .values import (
    OMEGA,
    ExactOrOmega,
    ModOmega,
    int_from_json,
    is_omega,
    omega_set,
    valuation_le,
    valuation_nonneg,
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


def _scc_of(nodes, edges, start):
    """The strongly connected component of `start` w.r.t. (src, dst) pairs."""
    fwd, bwd = {q: set() for q in nodes}, {q: set() for q in nodes}
    for s, d in edges:
        fwd[s].add(d)
        bwd[d].add(s)

    def reach(adj):
        seen = {start}
        stack = [start]
        while stack:
            q = stack.pop()
            for r in adj[q]:
                if r not in seen:
                    seen.add(r)
                    stack.append(r)
        return seen

    return reach(fwd) & reach(bwd)


def is_strongly_connected(vass: Vass) -> bool:
    if not vass.nodes:
        return False
    comp = _scc_of(vass.nodes, [(e.src, e.dst) for e in vass.edges], vass.nodes[0])
    return comp == set(vass.nodes)


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

    def combined_index(self, origin) -> int:
        _, origins = self.combined()
        return origins.index(origin)

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


# -- runs, factoring, acceptance ----------------------------------------------

@dataclass(frozen=True)
class RunFactoring:
    """Per-graph infixes of a run, as (entry config, edge indices, exit config)."""

    infixes: tuple


def factor_run(mgts: Mgts, run: Run) -> RunFactoring:
    iv, origins = mgts.combined()
    cfgs = list(run.configurations(iv.vass))
    bridge_positions = [k for k, i in enumerate(run.edge_seq) if origins[i][0] == "b"]
    expected = list(range(len(mgts.bridges)))
    if [origins[run.edge_seq[k]][1] for k in bridge_positions] != expected:
        raise StructuralError("run does not traverse the bridges once each, in order")
    infixes = []
    lo = 0
    for k in bridge_positions + [len(run.edge_seq)]:
        infixes.append((cfgs[lo], tuple(run.edge_seq[lo:k]), cfgs[k]))
        lo = k + 1
    return RunFactoring(tuple(infixes))


def intermediate_accepts(mgts: Mgts, run: Run, orders, domain) -> bool:
    """Every infix's first/last configuration satisfies 0 <= . <= entry/exit of
    its precovering graph under the supplied preorder family."""
    iv, _ = mgts.combined()
    from .model import Violation, simulate

    if isinstance(simulate(iv.vass, run.start, run.edge_seq, domain), Violation):
        return False
    try:
        factoring = factor_run(mgts, run)
    except StructuralError:
        raise
    for gi, (entry, _, exit_) in enumerate(factoring.infixes):
        g = mgts.graphs[gi]
        for cfg, marking in ((entry, g.in_marking), (exit_, g.out_marking)):
            if cfg.node != g.root:
                return False
            if not valuation_nonneg(cfg.valuation):
                return False
            if not valuation_le(cfg.valuation, marking, orders):
                return False
    return True


def side_orders(dmgts: Dmgts, side):
    if side == "x":
        return [ExactOrOmega(dmgts.x_counters), ModOmega(dmgts.mu, dmgts.y_counters)]
    if side == "y":
        return [ExactOrOmega(dmgts.y_counters)]
    if side == "full":
        return [ExactOrOmega()]
    raise ArgumentError(f"unknown side {side!r}")


def side_domain(dmgts: Dmgts, side, kind):
    """Non-negativity domain of the N- or Z-variant of a side's run set."""
    if kind == "int":
        return frozenset()
    if side == "x":
        return frozenset(dmgts.x_counters) | frozenset(dmgts.y_counters)
    if side == "y":
        return frozenset(dmgts.y_counters)
    if side == "full":
        return frozenset(dmgts.mgts.counters)
    raise ArgumentError(f"unknown side {side!r}")


def dmgts_word(run: Run, mgts: Mgts) -> tuple:
    """λ_#: edge labels, with bridge letters hash-annotated."""
    _, origins = mgts.combined()
    iv, _ = mgts.combined()
    word = []
    for i in run.edge_seq:
        e = iv.vass.edges[i]
        if e.label == EPSILON:
            continue
        word.append((e.label, origins[i][0] == "b"))
    return tuple(word)


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


def _shifted(val, moves) -> list:
    """val with each range k moved by d, for (k, d) in moves."""
    nval = list(val)
    for k, d in moves:
        r = nval[k]
        nval[k] = range(r.start + d, r.stop + d, r.step)
    return nval


def _clip(r: range, lo=None, hi=None) -> range:
    """The members of r (positive step) within [lo, hi]; None is unbounded."""
    n = len(r)
    i = 0 if lo is None else min(n, max(0, -((r.start - lo) // r.step)))
    j = n if hi is None else min(n, max(0, (hi - r.start) // r.step + 1))
    return r[i:j]


def _residue(r: range, m: int, mu: int) -> range:
    """The members of r (positive step) congruent to m modulo mu."""
    period = mu // gcd(r.step, mu)
    for i in range(min(period, len(r))):
        if (r[i] - m) % mu == 0:
            return r[i::period]
    return r[0:0]


def _intersect(a: range, b: range) -> range:
    """The members of both a and b (positive steps)."""
    if not b:
        return b
    return _residue(_clip(a, b[0], b[-1]), b[0], b.step)


def side_language_bounded(dmgts: Dmgts, side, max_len: int, kind="nat",
                          caps: LanguageCaps = LanguageCaps()) -> BoundedLanguage:
    """Bounded enumeration of the annotated side language: all λ_#(ρ) with
    |word| <= max_len found within the caps. Exact up to the caps; the flag
    reports whether any branch was cut off.

    One memoized walk covers every entry valuation at once: each counter holds
    a range of values (step 1, step mu, or one value), and every gate, the
    non-negativity domain and the value cap trim the ranges counter by counter.
    A range state's words are the union of its members' words, so the result
    equals one concrete walk per entry valuation, at a cost that does not grow
    as value_cap^k."""
    mgts = dmgts.mgts
    orders = side_orders(dmgts, side)
    domain = side_domain(dmgts, side, kind)
    iv, origins = mgts.combined()
    vass = iv.vass
    counters = vass.counters
    index = {c: k for k, c in enumerate(counters)}
    truncated = [False]
    gated = set()
    for o in orders:
        gated |= set(counters) if o.restrict is None else set(o.restrict)
    gated_idx = [index[c] for c in counters if c in gated]
    cap = caps.value_cap
    # ungated counters are monotone: one sufficiently high entry value is exact
    maxupd = max((abs(x) for e in vass.edges for x in e.update.values()), default=0) or 1
    free_seed = caps.max_run_len * maxupd

    def shifts(update):
        return [(index[c], update.get(c, 0)) for c in counters if update.get(c, 0)]

    out_edges_by_graph = {}
    for i, org in enumerate(origins):
        if org[0] == "g":
            e = vass.edges[i]
            out_edges_by_graph.setdefault((org[1], e.src), []).append(
                (e, shifts(e.update), [index[c] for c in e.update if c in domain]))
    bridge_moves = {org[1]: shifts(vass.edges[i].update)
                    for i, org in enumerate(origins) if org[0] == "b"}

    def gate_checks(marking):
        return [(index[c], o, marking[c])
                for o in orders
                for c in (marking if o.restrict is None else o.restrict)
                if not is_omega(marking[c])]

    in_checks = [gate_checks(g.in_marking) for g in mgts.graphs]
    out_checks = [gate_checks(g.out_marking) for g in mgts.graphs]

    def gate(val, checks):
        """The members of val that are >= 0 and <= the marking under every
        order, or None if there are none."""
        rs = [_clip(r, 0) for r in val]
        for k, o, m in checks:
            rs[k] = _clip(rs[k], m, m) if isinstance(o, ExactOrOmega) else _residue(rs[k], m, o.mu)
        return tuple(rs) if all(rs) else None

    memo = {}

    def walk(gi, node, val, wbudget, sbudget):
        key = (gi, node, val, wbudget, sbudget)
        if key in memo:
            return memo[key]
        memo[key] = frozenset()  # cycle guard
        acc = set()
        g = mgts.graphs[gi]
        exit_val = gate(val, out_checks[gi]) if node == g.root else None
        if exit_val is not None:
            if gi == len(mgts.graphs) - 1:
                acc.add(())
            else:
                u = mgts.bridges[gi]
                nwb = wbudget - (0 if u.label == EPSILON else 1)
                if nwb >= 0 and sbudget >= 1:
                    nval = gate(_shifted(exit_val, bridge_moves[gi]), in_checks[gi + 1])
                    if nval is not None:
                        suf = walk(gi + 1, mgts.graphs[gi + 1].root, nval, nwb, sbudget - 1)
                        pre = () if u.label == EPSILON else ((u.label, True),)
                        acc |= {pre + s for s in suf}
        if sbudget >= 1:
            for e, moves, dom in out_edges_by_graph.get((gi, node), ()):
                nval = _shifted(val, moves)
                for k in dom:
                    nval[k] = _clip(nval[k], 0)
                if not all(nval):
                    continue
                for k in gated_idx:
                    r = _clip(nval[k], -cap, cap)
                    if len(r) < len(nval[k]):
                        truncated[0] = True
                    nval[k] = r
                if not all(nval):
                    continue
                nwb = wbudget - (0 if e.label == EPSILON else 1)
                if nwb < 0:
                    continue
                suf = walk(gi, e.dst, tuple(nval), nwb, sbudget - 1)
                pre = () if e.label == EPSILON else ((e.label, False),)
                acc |= {pre + s for s in suf}
        memo[key] = frozenset(acc)
        return memo[key]

    words = frozenset()
    g0 = mgts.graphs[0]
    entry = _entry_ranges(counters, g0.in_marking, orders, gated, cap, free_seed)
    try:
        sval = gate([entry[c] for c in counters], in_checks[0])
        if sval is not None:
            words = walk(0, g0.root, sval, max_len, caps.max_run_len)
    finally:
        # walk refers to itself; break the cycle so the memo is freed now,
        # not at the next full garbage collection
        del walk
    return BoundedLanguage(words, truncated[0])


def _entry_ranges(counters, in_marking, orders, gated, value_cap, free_seed=None):
    """Per counter, the range of entry values compatible with the entry gates,
    capped.

    Counters never compared by any gate are monotone (raising them only helps),
    so one high value suffices for them.
    """
    per = {}
    for c in counters:
        if c not in gated:
            v = free_seed if free_seed is not None else value_cap
            per[c] = range(v, v + 1)
            continue
        bound = in_marking[c]
        vals = None
        for o in orders:
            if o.restrict is not None and c not in o.restrict:
                continue
            if is_omega(bound):
                cand = range(0, value_cap + 1)
            elif isinstance(o, ExactOrOmega):
                cand = range(bound, bound + 1)
            else:
                cand = _residue(range(0, value_cap + 1), bound, o.mu)
            vals = cand if vals is None else _intersect(vals, cand)
        per[c] = range(0) if vals is None else vals
    return per


def _entry_candidates(counters, in_marking, orders, gated, value_cap, free_seed=None):
    """Concrete entry valuations compatible with the entry gates, capped: the
    product of the per-counter `_entry_ranges`."""
    per = _entry_ranges(counters, in_marking, orders, gated, value_cap, free_seed)
    starts = [{}]
    for c in counters:
        starts = [dict(s, **{c: v}) for s in starts for v in per[c]]
    return starts


# -- constructions -------------------------------------------------------------

def _sccs(succ, starts) -> dict:
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


def unfold_paths(edges, starts, is_final, name, marking, first_in, last_out,
                 alphabet, counters, path_cap=2000, step_cap=2_000_000) -> list:
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
    `path_cap` paths or `step_cap` search steps."""
    succ, back = {}, {}
    for k, (src, _, _, dst) in enumerate(edges):
        succ.setdefault(src, []).append((k, dst))
        back.setdefault(dst, set()).add(src)
    comp = _sccs(succ, starts)
    inner = {}  # component -> its edges, in list order
    for edge in edges:
        if edge[0] in comp and edge[3] in comp[edge[0]]:
            inner.setdefault(comp[edge[0]], []).append(edge)

    live = [s for s in comp if is_final(s)]
    can_reach = set(live)
    while live:
        for u in back.get(live.pop(), ()):
            if u not in can_reach:
                can_reach.add(u)
                live.append(u)

    paths = []

    def found(states, ks):
        paths.append((list(states), list(ks)))
        if len(paths) > path_cap:
            raise ResourceExhausted(f"simple path cap {path_cap} exceeded")

    steps = 0
    for start in starts:
        if start not in can_reach:
            continue
        states, ks, visited = [start], [], {start}
        iters = [iter(succ.get(start, ()))]
        if is_final(start):
            found(states, ks)
        while iters:
            steps += 1
            if steps > step_cap:
                raise ResourceExhausted(f"simple path step cap {step_cap} exceeded")
            for k, nxt in iters[-1]:
                if nxt in can_reach and nxt not in visited:
                    visited.add(nxt)
                    states.append(nxt)
                    ks.append(k)
                    iters.append(iter(succ.get(nxt, ())))
                    if is_final(nxt):
                        found(states, ks)
                    break
            else:
                iters.pop()
                visited.remove(states.pop())
                if ks:
                    ks.pop()

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


def fold_to_mgts_list(iv: InitVass, path_cap=2000) -> list:
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
        iv.init.valuation, iv.final.valuation, vass.alphabet, vass.counters, path_cap,
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


def initial_dmgts(subject: InitVass) -> Dmgts:
    """The starting DMGTS: a single all-ω root-loop graph whose X-side language
    equals L(subject); multi-node subjects are folded into a VAS first."""
    n = _infer_dyck_dim(subject.vass.alphabet)
    if len(subject.vass.nodes) > 1:
        subject = fold_states(subject)
    xs = [f"x.{c}" for c in subject.vass.counters]
    ys = [f"y.{i}" for i in range(1, n + 1)]
    counters = sorted(xs) + ys
    zero = {c: 0 for c in counters}
    edges = []
    for e in subject.vass.edges:
        upd = dict(zero)
        for c, v in e.update.items():
            upd[f"x.{c}"] = v
        if e.label != EPSILON:
            i, d = letter_index(e.label, n)
            upd[f"y.{i}"] = d
        edges.append(Edge("r", e.label, upd, "r"))
    vass = Vass(["r"], dyck_alphabet(n), counters, edges)

    def cfg(old):
        val = dict(zero)
        for c, v in old.valuation.items():
            val[f"x.{c}"] = v
        return GenConfig("r", val)

    base = InitVass(vass, cfg(subject.init), cfg(subject.final))
    assignment = {"r": {c: OMEGA for c in counters}}
    graph = PrecoveringGraph(base, assignment)
    bad = validate_precovering(graph)
    if bad:
        raise StructuralError(f"initial graph invalid: {bad}")
    return Dmgts(Mgts([graph]), 1, xs, ys, faithful=True)


def is_zero_reaching(dmgts: Dmgts) -> bool:
    ys = dmgts.y_counters
    return all(dmgts.mgts.in_marking[c] == 0 for c in ys) and all(
        dmgts.mgts.out_marking[c] == 0 for c in ys
    )


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
    in before out)."""
    from .chareq import build_char, support

    sup = {side: support(build_char(dmgts, side)) for side in ("x", "y")}
    for gi, g in enumerate(dmgts.graphs):
        for side in ("x", "y"):
            for c in sorted(dmgts.side_counters(side)):
                for io in ("in", "out"):
                    marking = g.in_marking if io == "in" else g.out_marking
                    if is_omega(marking[c]) and ("io", gi, io, c) not in sup[side]:
                        return PerfectnessDiagnosis("i", gi, side, c, io)
    for gi, g in enumerate(dmgts.graphs):
        for side in ("x", "y"):
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


def is_perfect(dmgts: Dmgts) -> bool:
    return perfectness_diagnosis(dmgts) is None


def faithfulness_falsify(dmgts: Dmgts, run_len_cap=8, value_cap=8):
    """Search bounded Z-runs for a counterexample to the faithfulness inclusion;
    None means none found (a semidecision, not a proof)."""
    if not is_zero_reaching(dmgts):
        raise ArgumentError("faithfulness is defined for zero-reaching DMGTS")
    mgts = dmgts.mgts
    iv, _ = mgts.combined()
    vass = iv.vass
    ys = dmgts.y_counters
    acc_orders = [ExactOrOmega(ys)]
    mod_orders = [ModOmega(dmgts.mu, ys)]
    from .model import INT_DOMAIN, accepts

    starts = []
    for xv in _entry_candidates(
        vass.counters, mgts.in_marking, mod_orders, set(vass.counters), value_cap
    ):
        sval = dict(xv)
        for c in ys:
            sval[c] = 0  # Acc_{Z,Y} pins the Y start at the zero in-marking
        starts.append(sval)

    def edge_seqs(node, budget):
        yield node, ()
        if budget == 0:
            return
        for i, e in sorted(vass.out_edges(node)):
            for end, rest in edge_seqs(e.dst, budget - 1):
                yield end, (i,) + rest

    seen = set()
    for sval in starts:
        key = tuple(sorted(sval.items()))
        if key in seen:
            continue
        seen.add(key)
        for _, seq in edge_seqs(iv.init.node, run_len_cap):
            run = Run(GenConfig(iv.init.node, sval), seq)
            if not accepts(iv, run, acc_orders, INT_DOMAIN):
                continue
            try:
                mod_ok = intermediate_accepts(mgts, run, mod_orders, INT_DOMAIN)
            except StructuralError:
                continue
            if not mod_ok:
                continue
            if not intermediate_accepts(mgts, run, acc_orders, INT_DOMAIN):
                return run
    return None


def consistent_specialization_falsify(n1: Dmgts, n2: Dmgts, run_len_cap=6, value_cap=6):
    """Bounded search for a violation of the consistent-specialization
    conditions of n1 w.r.t. n2 (a single-graph DMGTS); None if none found."""
    if n1.mu != n2.mu:
        raise ArgumentError("consistent specialization requires equal mu")
    if len(n2.graphs) != 1:
        raise ArgumentError("the specialized object must be a single precovering graph")
    p = n2.graphs[0]
    iv1, _ = n1.mgts.combined()
    in1, out1 = n1.mgts.in_marking, n1.mgts.out_marking
    if not valuation_le(in1, p.in_marking, [ExactOrOmega()]) or not valuation_le(
        out1, p.out_marking, [ExactOrOmega()]
    ):
        return ("markings", None)

    # (1): every bounded run of n1 has a label/value-equivalent walk in n2
    sigs2 = set()

    def walks(vass, node, budget, sig):
        sigs2.add(sig)
        if budget == 0:
            return
        for i, e in sorted(vass.out_edges(node)):
            upd = tuple(sorted(e.update.items()))
            walks(vass, e.dst, budget - 1, sig + ((e.label, upd),))

    for q in p.vass.nodes:
        walks(p.vass, q, run_len_cap, ())
    vass1 = iv1.vass
    bad = []

    def check1(node, budget, sig, seq):
        if sig not in sigs2:
            bad.append(seq)
            return
        if budget == 0:
            return
        for i, e in sorted(vass1.out_edges(node)):
            upd = tuple(sorted((c, e.update.get(c, 0)) for c in p.vass.counters))
            check1(e.dst, budget - 1, sig + ((e.label, upd),), seq + (i,))
            if bad:
                return

    for q in vass1.nodes:
        check1(q, run_len_cap, (), ())
        if bad:
            return ("no-matching-run", bad[0])

    # (2): bounded modulo-accepting runs of n1 that agree with p's extremal
    # Y-markings are intermediate accepting on Y
    ys = n1.y_counters
    from .model import INT_DOMAIN

    mod_orders = [ModOmega(n1.mu, ys)]
    acc_orders = [ExactOrOmega(ys)]
    for sval in _entry_candidates(
        vass1.counters, in1, mod_orders, set(vass1.counters), value_cap
    ):
        def seqs(node, budget):
            yield node, ()
            if budget == 0:
                return
            for i, e in sorted(vass1.out_edges(node)):
                for end, rest in seqs(e.dst, budget - 1):
                    yield end, (i,) + rest

        for _, seq in seqs(iv1.init.node, run_len_cap):
            run = Run(GenConfig(iv1.init.node, sval), seq)
            try:
                if not intermediate_accepts(n1.mgts, run, mod_orders, INT_DOMAIN):
                    continue
            except StructuralError:
                continue
            last = run.final_config(vass1)
            first_ok = valuation_le(
                {c: sval[c] for c in ys}, {c: p.in_marking[c] for c in ys}, [ExactOrOmega()]
            )
            last_ok = valuation_le(
                {c: last.valuation[c] for c in ys},
                {c: p.out_marking[c] for c in ys},
                [ExactOrOmega()],
            )
            if first_ok and last_ok and not intermediate_accepts(
                n1.mgts, run, acc_orders, INT_DOMAIN
            ):
                return ("condition-2", run)
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
    bridges = []
    for b in doc["bridges"]:
        json_object(b, ("label", "update"), "a bridge")
        update = json_object(b["update"], (), "a bridge update")
        bridges.append(Update(json_name(b["label"], "a bridge label"),
                              {c: int_from_json(v) for c, v in update.items()}))
    return Dmgts(Mgts(graphs, bridges), int_from_json(doc["mu"]), doc["x_counters"],
                 doc["y_counters"], doc.get("faithful", False))


def dump_dmgts(d: Dmgts) -> str:
    return json.dumps(dmgts_to_json(d), sort_keys=True, indent=2)


def canonical_key(d: Dmgts) -> str:
    return json.dumps(dmgts_to_json(d), sort_keys=True)
