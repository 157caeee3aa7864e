"""Separator synthesis and transfer: the modulo automaton, Z-to-N separator
lifting, Lambert pumping, and the rooted loop-pair search behind the
equal-label rung of the Z-separability ladder."""

from __future__ import annotations

import itertools
from math import ceil

from .automata import Nfa, bounded_words, product, strip_hash
from .chareq import build_char, edge_var, io_var, full_support_solution, support
from .errors import ArgumentError, ResourceExhausted
from .mgts import Dmgts, intermediate_accepts, side_gates
from .model import (
    EPSILON,
    GenConfig,
    Run,
    annotated_alphabet,
    effect,
    parikh_of,
)
from .solver import ilp_feasible
from .structure import covering_sequences, down_covering, realization
from .values import gate_ok

SCALE_CAP = 100_000  # largest multiple of a full-support solution tried
LOOP_LEN = 4    # longest rooted loop of a loop-pair search
LOOP_PAIRS = 50_000  # loop-pair combinations one search tries


def modulo_automaton(dmgts: Dmgts) -> Nfa:
    """The NFA that follows the DMGTS, maintains the Y counters modulo mu, and
    checks intermediate acceptance modulo mu."""
    tracked = list(dmgts.y_counters)
    mu = dmgts.mu
    n = len(dmgts.y_counters)
    alphabet = annotated_alphabet(n)
    gates = side_gates(dmgts, "x")

    def compatible(r, marking):
        return all(gate_ok(r[i], marking[c], gates[c]) for i, c in enumerate(tracked))

    def shift(r, update):
        return tuple((r[i] + update.get(c, 0)) % mu for i, c in enumerate(tracked))

    states, transitions = set(), set()
    all_res = list(itertools.product(range(mu), repeat=len(tracked)))
    for gi, g in enumerate(dmgts.graphs):
        for r in all_res:
            states.add(("enter", gi, r))
            states.add(("exit", gi, r))
            for q in g.vass.nodes:
                states.add(("node", q, r))
            if compatible(r, g.in_marking):
                transitions.add((("enter", gi, r), None, ("node", g.root, r)))
            if compatible(r, g.out_marking):
                transitions.add((("node", g.root, r), None, ("exit", gi, r)))
            for e in g.vass.edges:
                lab = None if e.label == EPSILON else (e.label, False)
                transitions.add(
                    (("node", e.src, r), lab, ("node", e.dst, shift(r, e.update)))
                )
    for bi, u in enumerate(dmgts.bridges):
        for r in all_res:
            lab = None if u.label == EPSILON else (u.label, True)
            transitions.add(
                (("exit", bi, r), lab, ("enter", bi + 1, shift(r, u.update)))
            )
    initial = {("enter", 0, r) for r in all_res if compatible(r, dmgts.mgts.in_marking)}
    final = {
        ("exit", len(dmgts.graphs) - 1, r)
        for r in all_res
        if compatible(r, dmgts.mgts.out_marking)
    }
    return Nfa(states, transitions, initial, final, alphabet)


def lift_separator(zsep: Nfa, dmgts: Dmgts) -> Nfa:
    """Make a Z-separator precise by product with the modulo automaton, then
    drop the hash annotations. The caller owes that zsep separates Sol_X from
    Sol_Y (bounded-verified upstream); its alphabet must be the annotated Σ_n
    of the DMGTS, or `product` raises StructuralError."""
    return strip_hash(product(zsep, modulo_automaton(dmgts)))


# -- Lambert pumping -------------------------------------------------------------

def _covers(mgts, message):
    """Per graph, its up and down covering sequences (u_i, d_i); raises
    ArgumentError(message) when one is missing."""
    covers = []
    for g in mgts.graphs:
        u = covering_sequences(g)
        d = down_covering(g)
        if u is None or d is None:
            raise ArgumentError(message)
        covers.append((u, d))
    return covers


def _stitch(mgts, sol, blocks) -> Run:
    """The run of the combined VASS from the solution's first entry valuation
    through each graph's block of local edges, then its bridge."""
    iv, origins = mgts.combined()
    at = {origin: i for i, origin in enumerate(origins)}
    seq = []
    for gi, block in enumerate(blocks):
        seq.extend(at["g", gi, ei] for ei in block)
        if gi < len(mgts.bridges):
            seq.append(at["b", gi])
    start = {c: sol[io_var(0, "in", c)] for c in mgts.counters}
    return Run(GenConfig(iv.init.node, start), tuple(seq))


def scaled_support(cs, covers):
    """m * full-support-solution satisfying the Parikh and Enable inequalities
    for the given covering sequences, for the least m up to SCALE_CAP."""
    mgts = cs.mgts
    sup = support(cs)
    base = full_support_solution(cs, sup)
    for m in range(1, SCALE_CAP + 1):
        ok = True
        for gi, g in enumerate(mgts.graphs):
            u, d = covers[gi]
            psi_u, psi_d = parikh_of(u), parikh_of(d)
            for ei in range(len(g.vass.edges)):
                need = m * base[edge_var(gi, ei)] - psi_u.get(ei, 0) - psi_d.get(ei, 0)
                if need < 1:
                    ok = False
                    break
            if not ok:
                break
            du = effect(u, g.vass)
            dd = effect(d, g.vass)
            for j in sorted(g.omega_counters):
                if m * base[io_var(gi, "in", j)] + du[j] < 1:
                    ok = False
                    break
                if m * base[io_var(gi, "out", j)] - dd[j] < 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return {v: m * base[v] for v in base.assignment}
    raise ResourceExhausted(f"no support scale within {SCALE_CAP}")


def lambert_pump(obj, s_f, k_cap: int):
    """An N-run that is intermediate accepting, built from a solution of the
    characteristic system by embedding it into pumped covering sequences:
    c . u_0^k π_0 w_0^k d_0^k . bridge . u_1^k ... Soundness is by simulation:
    the first verifying k in [k0, k_cap] is returned."""
    mgts = obj.mgts if isinstance(obj, Dmgts) else obj
    covers = _covers(mgts, "lambert_pump needs covering sequences (perfect input)")
    sol = s_f.assignment if hasattr(s_f, "assignment") else dict(s_f)
    sup_scaled = scaled_support(build_char(obj, "full"), covers)
    mains, fillers = [], []
    for gi, g in enumerate(mgts.graphs):
        u, d = covers[gi]
        psi_u, psi_d = parikh_of(u), parikh_of(d)
        filler_counts = {
            ei: sup_scaled[edge_var(gi, ei)] - psi_u.get(ei, 0) - psi_d.get(ei, 0)
            for ei in range(len(g.vass.edges))
        }
        fillers.append(realization(g, filler_counts, g.root))
        main_counts = {ei: sol[edge_var(gi, ei)] for ei in range(len(g.vass.edges))}
        try:
            mains.append(realization(g, main_counts, g.root))
        except ArgumentError:
            folded = {
                ei: main_counts[ei] + sup_scaled[edge_var(gi, ei)]
                for ei in main_counts
            }
            mains.append(realization(g, folded, g.root))
    gates = side_gates(obj, "full")
    k0 = _enable_k0(mgts, sol, covers, mains, fillers)
    for k in range(max(1, k0), k_cap + 1):
        run = _stitch(mgts, sol, [u * k + mains[gi] + fillers[gi] * k + d * k
                                  for gi, (u, d) in enumerate(covers)])
        if intermediate_accepts(mgts, run, gates, frozenset(gates)):
            return run
    raise ResourceExhausted(f"no verifying repetition count within {k_cap}")


def _enable_k0(mgts, sol, covers, mains, fillers):
    """A cheap lower bound for the repetition scan: cover each graph's worst
    prefix dip on its ω-decorated counters."""
    k0 = 1
    for gi, g in enumerate(mgts.graphs):
        u, d = covers[gi]
        du = effect(u, g.vass)
        dip = {c: 0 for c in g.omega_counters}
        val = {c: 0 for c in g.vass.counters}
        for ei in list(mains[gi]) + list(fillers[gi]) + list(d):
            for c, x in g.vass.edges[ei].update.items():
                val[c] += x
                if c in dip and val[c] < dip[c]:
                    dip[c] = val[c]
        for c in sorted(g.omega_counters):
            gain = du[c]
            start = sol.get(io_var(gi, "in", c), 0)
            if gain >= 1:
                k0 = max(k0, ceil((-dip[c] - start) / gain) + 1)
    return k0


# -- rooted loop pairs -------------------------------------------------------------

def rooted_loops(g, max_len: int):
    """All rooted cycles of local length <= max_len as edge-index tuples, the
    empty one included, in sorted order."""
    out = g.vass.successors()
    return sorted(bounded_words(g.root, lambda node: out.get(node, ()),
                                lambda node: node == g.root, max_len, max_len))


def loop_labels(g, loop) -> tuple:
    """The letters a rooted loop of g spells."""
    return tuple(g.vass.edges[i].label for i in loop if g.vass.edges[i].label != EPSILON)


def loop_pair_search(dmgts: Dmgts, loop_len: int, key, combo_cap: int):
    """Per-graph rooted loop pairs (σ_i, σ'_i) with key(g, σ_i) == key(g, σ'_i)
    whose summed Parikh vectors solve Char_X resp. Char_Y; None if there are
    none. More than combo_cap combinations raise ResourceExhausted."""
    per_graph = []
    for g in dmgts.graphs:
        loops = rooted_loops(g, loop_len)
        keys = [key(g, a) for a in loops]
        per_graph.append([(a, b) for a, ka in zip(loops, keys)
                          for b, kb in zip(loops, keys) if ka == kb])
    combos = [[]]
    for pairs in per_graph:
        combos = [c + [p] for c in combos for p in pairs]
        if len(combos) > combo_cap:
            raise ResourceExhausted(f"loop-pair combination cap {combo_cap} exceeded")
    for combo in combos:
        xs, ys = [a for a, _ in combo], [b for _, b in combo]
        if (_loop_solution(dmgts, xs, "x") is not None
                and _loop_solution(dmgts, ys, "y") is not None):
            return combo
    return None


def _loop_solution(dmgts: Dmgts, loops, side):
    """A solution of the side's characteristic system whose edge counts are
    the Parikh vectors of the per-graph loops, or None."""
    system = build_char(dmgts, side).system
    for gi, g in enumerate(dmgts.graphs):
        counts = parikh_of(loops[gi])
        for ei in range(len(g.vass.edges)):
            system = system.with_fixed(edge_var(gi, ei), counts.get(ei, 0))
    return ilp_feasible(system)
