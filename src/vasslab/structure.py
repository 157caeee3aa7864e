"""Graph analyses over precovering graphs: cycle spaces and ranks, covering
sequences via Karp-Miller trees, fixed counters, realization of Parikh vectors
as rooted cycles, and the Rackoff-style bound."""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .automata import reachable
from .errors import ArgumentError, ResourceExhausted, StructuralError
from .lattice import hermite
from .mgts import Dmgts, Mgts, PrecoveringGraph, is_strongly_connected
from .model import search_run
from .values import OMEGA, is_omega


# -- cycle space -----------------------------------------------------------------

def _potentials(p: PrecoveringGraph):
    """(φ, defects): φ maps each node to the summed updates along the path that
    one depth-first walk from the root reaches it by (a spanning tree; φ(root)
    is 0), as a vector over the counters; the defect of an edge is
    φ(src) + update − φ(dst), one per edge in the order the walk meets them.

    The fundamental cycles of a spanning tree span the cycle space, and each
    one's effect is the defect of its one non-tree edge (Kirchhoff)."""
    if not is_strongly_connected(p.vass):
        raise StructuralError("cycle space needs a strongly connected graph")
    counters = p.vass.counters
    _, moves = reachable([p.root], lambda q: ((e, e.dst) for _, e in p.vass.out_edges(q)))
    phi = {p.root: (0,) * len(counters)}
    defects = []
    for q, e, r in moves:  # a move's source was reached by an earlier move
        v = tuple(x + e.update[c] for x, c in zip(phi[q], counters))
        defects.append(tuple(a - b for a, b in zip(v, phi.setdefault(r, v))))
    return phi, defects


def cycle_space_dim(p: PrecoveringGraph) -> int:
    """Dimension of the span of cycle effects: the rank of the defects, the
    number of pivots of their Hermite normal form."""
    return len(hermite(_potentials(p)[1], len(p.vass.counters)).pivots)


# -- rank ------------------------------------------------------------------------

def rank(obj) -> tuple:
    """The termination measure: index d - i carries |E| + |Ω(in)| + |Ω(P)| +
    |Ω(out)| for an i-dimensional cycle space; MGTS rank is the sum; the
    modulus of a DMGTS is ignored."""
    mgts = obj.mgts if isinstance(obj, Dmgts) else obj
    if isinstance(mgts, PrecoveringGraph):
        mgts = Mgts([mgts])
    d = len(mgts.counters)
    vec = [0] * (d + 1)
    for g in mgts.graphs:
        i = cycle_space_dim(g)
        entry = (
            len(g.vass.edges)
            + len([c for c in g.in_marking if is_omega(g.in_marking[c])])
            + len(g.omega_counters)
            + len([c for c in g.out_marking if is_omega(g.out_marking[c])])
        )
        vec[d - i] += entry
    return tuple(vec)


def rank_less(r1, r2) -> bool:
    """Lexicographic, index 0 most significant."""
    return tuple(r1) < tuple(r2)


# -- Karp-Miller and covering sequences -------------------------------------------

KM_NODE_CAP = 20_000    # nodes of one Karp-Miller tree
WITNESS_CAP = 200_000   # states of one covering-witness search


@dataclass
class KmNode:
    node: str
    valuation: tuple
    parent: "KmNode" = None


def _dominates(low, high):
    """low <= high with omega on top; returns (True, strict-coordinate set)."""
    strict = set()
    for i, (a, b) in enumerate(zip(low, high)):
        if is_omega(a):
            if not is_omega(b):
                return False, None
        elif is_omega(b) or b > a:
            strict.add(i)
        elif b < a:
            return False, None
    return True, strict


def karp_miller(vass, start_node, start_val) -> list:
    """The Karp-Miller tree from (start_node, start_val) as its list of
    KmNode, root first."""
    counters = vass.counters
    root = KmNode(start_node, tuple(start_val[c] for c in counters))
    tree = [root]
    queue = [root]
    while queue:
        cur = queue.pop(0)
        # duplicate pruning: an identical ancestor means nothing new below
        anc = cur.parent
        dup = False
        while anc is not None:
            if anc.node == cur.node and anc.valuation == cur.valuation:
                dup = True
                break
            anc = anc.parent
        if dup:
            continue
        for _, e in sorted(vass.out_edges(cur.node)):
            val = list(cur.valuation)
            ok = True
            for ci, c in enumerate(counters):
                val[ci] = val[ci] + e.update[c] if not is_omega(val[ci]) else OMEGA
                if not is_omega(val[ci]) and val[ci] < 0:
                    ok = False
                    break
            if not ok:
                continue
            # accelerate against every dominated ancestor
            anc = cur
            while anc is not None:
                if anc.node == e.dst:
                    dom, strict = _dominates(anc.valuation, tuple(val))
                    if dom and strict:
                        for ci in strict:
                            val[ci] = OMEGA
                anc = anc.parent
            child = KmNode(e.dst, tuple(val), cur)
            tree.append(child)
            queue.append(child)
            if len(tree) > KM_NODE_CAP:
                raise ResourceExhausted(f"Karp-Miller node cap {KM_NODE_CAP} exceeded")
    return tree


def _pump_targets(p: PrecoveringGraph):
    return sorted(p.omega_counters - frozenset(
        c for c in p.vass.counters if is_omega(p.in_marking[c])
    ))


def covering_sequences(p: PrecoveringGraph):
    """A witness σ with (root,c1).σ.(root,c2) an N-run, c1 <= in (ω free) and
    c2 strictly larger on the ω-decorated concretely-initialized counters; None
    if no covering sequence exists. Decision by Karp-Miller, witness by bounded
    search (verified)."""
    pump = _pump_targets(p)
    if not pump:
        return ()
    hit = any(
        n.node == p.root and all(is_omega(n.valuation[p.vass.counters.index(c)]) for c in pump)
        for n in karp_miller(p.vass, p.root, p.in_marking)
    )
    if not hit:
        return None
    witness = _pump_witness(p, pump)
    if witness is None:
        raise ResourceExhausted("covering sequence exists but witness search hit its cap")
    return witness


def _pump_witness(p: PrecoveringGraph, pump):
    """A shortest root-to-root path that raises every pump counter, from an
    entry seeded high enough for `depth` steps, for growing depths; None past
    WITNESS_CAP states of one search."""
    counters = p.vass.counters
    pump_at = [counters.index(c) for c in pump]
    for depth in (8, 16, 32, 64):
        seed = depth * largest_update(p) + 1
        start = [seed if is_omega(p.in_marking[c]) else p.in_marking[c] for c in counters]

        def goal(node, vals):
            return node == p.root and all(vals[k] > start[k] for k in pump_at)

        try:
            path, _ = search_run(p.vass, p.root, start, counters, goal, max_len=depth,
                                 state_cap=WITNESS_CAP)
        except ResourceExhausted:
            return None
        if path is not None:
            return path
    return None


def down_covering(p: PrecoveringGraph):
    """Cov↓(P) = rev(Cov(rev(P))): the down witness, reversed, pumps up the
    reversed graph."""
    up = covering_sequences(p.reverse())
    if up is None:
        return None
    return tuple(reversed(up))


# -- fixed counters ---------------------------------------------------------------

def fixed_counters(p: PrecoveringGraph) -> frozenset:
    """Counters with zero effect on every cycle: every edge's defect is 0 on
    them."""
    _, defects = _potentials(p)
    return frozenset(c for i, c in enumerate(p.vass.counters) if not any(d[i] for d in defects))


def fixed_assignment(p: PrecoveringGraph, j) -> dict:
    """The unique node potential of a fixed counter: in(j) + φ_j."""
    phi, defects = _potentials(p)
    i = p.vass.counters.index(j) if j in p.vass.counters else None
    if i is None or any(d[i] for d in defects):
        raise ArgumentError(f"counter {j!r} is not fixed")
    if is_omega(p.in_marking[j]):
        raise ArgumentError(f"fixed assignment needs a finite in-marking on {j!r}")
    return {q: p.in_marking[j] + v[i] for q, v in phi.items()}


# -- realization -------------------------------------------------------------------

def realization(vass_or_graph, parikh: dict, start) -> tuple:
    """An Eulerian-style rooted cycle using edge i exactly parikh[i] times
    (Hierholzer, smallest-edge-id first). The support must be Kirchhoff-balanced
    and connected to `start`."""
    vass = vass_or_graph.vass if isinstance(vass_or_graph, PrecoveringGraph) else vass_or_graph
    remaining = {i: k for i, k in parikh.items() if k > 0}
    for i, k in parikh.items():
        if k < 0 or not 0 <= i < len(vass.edges):
            raise ArgumentError(f"bad Parikh entry {i}: {k}")
    balance = {}
    for i, k in remaining.items():
        e = vass.edges[i]
        balance[e.src] = balance.get(e.src, 0) - k
        balance[e.dst] = balance.get(e.dst, 0) + k
    if any(v != 0 for v in balance.values()):
        raise ArgumentError("Parikh vector is not Kirchhoff-consistent")
    if not remaining:
        return ()
    avail = {}
    for i in sorted(remaining):
        avail.setdefault(vass.edges[i].src, []).append(i)
    node_stack, edge_stack, circuit = [start], [], []
    counts = dict(remaining)
    while node_stack:
        v = node_stack[-1]
        e_id = next((i for i in avail.get(v, []) if counts.get(i, 0) > 0), None)
        if e_id is not None:
            counts[e_id] -= 1
            node_stack.append(vass.edges[e_id].dst)
            edge_stack.append(e_id)
        else:
            node_stack.pop()
            if edge_stack:
                circuit.append(edge_stack.pop())
    if any(v > 0 for v in counts.values()):
        raise ArgumentError("Parikh support is not connected to the start node")
    circuit.reverse()
    return tuple(circuit)


# -- Rackoff-style bound -------------------------------------------------------------

def largest_update(p: PrecoveringGraph) -> int:
    return max((abs(x) for e in p.vass.edges for x in e.update.values()), default=0) or 1


def rackoff_bound(p: PrecoveringGraph, jprime, C) -> int:
    """B = (|nodes| * l * max(C, 2)) ** (|J'| + 1)! with l the largest absolute
    transition effect."""
    C = max(2, C)
    base = len(p.vass.nodes) * largest_update(p) * C
    return base ** factorial(len(set(jprime)) + 1)
