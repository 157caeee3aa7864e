"""Separator synthesis and transfer: the modulo automaton, Z-to-N separator
lifting, preciseness testing, Lambert pumping, and inseparability witnesses
built from the diff/rem construction."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import ceil, factorial

from .automata import (
    Nfa,
    bounded_words,
    dfa_profile,
    enumerate_words,
    product,
    run_word,
    strip_hash,
)
from .chareq import build_char, edge_var, io_var, full_support_solution, support
from .errors import ArgumentError, ResourceExhausted, StructuralError
from .mgts import (
    Dmgts,
    LanguageCaps,
    intermediate_accepts,
    is_zero_reaching,
    side_gates,
    side_language_bounded,
)
from .model import (
    EPSILON,
    GenConfig,
    Run,
    annotated_alphabet,
    effect,
    is_dyck_word,
    parikh_of,
)
from .solver import ilp_feasible
from .structure import covering_sequences, down_covering, realization
from .values import gate_ok

SCALE_CAP = 100_000  # largest multiple of a full-support solution tried
WITNESS_REPEATS = 64  # largest factor c and repetition count k of an inseparability witness
SHORT_WITNESS_LEN = 6  # word length of the side languages a short witness is read from
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


def preciseness_falsify(nfa_sharp: Nfa, dmgts: Dmgts, max_len: int,
                        caps: LanguageCaps = LanguageCaps()):
    """A word w in L(nfa#) ∩ Dyck# with w outside the bounded Sol_Y, or None.
    Dyck# offers a and (a,#) wherever the Dyck language has a."""
    n = len(dmgts.y_counters)
    soly = side_language_bounded(dmgts, "y", max_len, "int", caps).words
    for w in sorted(enumerate_words(nfa_sharp, max_len), key=repr):
        plain = tuple(a for a, _ in w)
        if not is_dyck_word(plain, n):
            continue
        if w not in soly:
            return w
    return None


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
            du = effect(u, vass=g.vass)
            dd = effect(d, vass=g.vass)
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
        du = effect(u, vass=g.vass)
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


# -- diff / rem and inseparability witnesses ---------------------------------------

@dataclass
class DiffRem:
    diff: tuple
    rem: tuple
    u: tuple
    d: tuple
    w_x: tuple
    w_y: tuple


def build_diff_rem(g, s_x: dict, s_y: dict, u_prime, d_prime, n_states: int, c: int) -> DiffRem:
    """The pigeonhole construction: diff realizes the excess of the Dyck-side
    support solution, rem fills the subject-side block, and w_x = diff^N rem vs
    w_y = diff^{N + c N!} rem drive every DFA with at most n_states states
    through identical state changes."""
    nedges = len(g.vass.edges)
    for ei in range(nedges):
        if s_y.get(ei, 0) - s_x.get(ei, 0) < 1:
            raise ArgumentError("needs (s_y - s_x) >= 1 on every edge (rescale s_y)")
    fact = factorial(n_states)
    diff = realization(g, {ei: s_y.get(ei, 0) - s_x.get(ei, 0) for ei in range(nedges)}, g.root)
    psi_u, psi_d, psi_diff = parikh_of(u_prime), parikh_of(d_prime), parikh_of(diff)
    rem_counts = {}
    for ei in range(nedges):
        k = c * fact * (s_x.get(ei, 0) - psi_u.get(ei, 0) - psi_d.get(ei, 0)) - n_states * psi_diff.get(ei, 0)
        if k < 0:
            raise ArgumentError(f"factor c={c} too small to realize rem")
        rem_counts[ei] = k
    rem = realization(g, rem_counts, g.root)
    u = tuple(u_prime) * (c * fact)
    d = tuple(d_prime) * (c * fact)
    w_x = diff * n_states + rem
    w_y = diff * (n_states + c * fact) + rem
    for (block, side_counts) in ((w_x, s_x), (w_y, s_y)):
        got = parikh_of(u + d + block)
        want = {ei: c * fact * side_counts.get(ei, 0) for ei in range(nedges)}
        if {e: k for e, k in got.items() if k} != {e: k for e, k in want.items() if k}:
            raise StructuralError("diff/rem Parikh identity failed")
    return DiffRem(diff, rem, u, d, w_x, w_y)


@dataclass
class WitnessPair:
    o_x: tuple
    o_y: tuple
    data: dict


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


def find_z_pair(dmgts: Dmgts, dfa: Nfa):
    """Loop pairs with ~A-equal labels (equal DFA profiles) whose Parikh sums
    solve Char_X resp. Char_Y; None if none within LOOP_LEN and LOOP_PAIRS."""
    return loop_pair_search(dmgts, LOOP_LEN,
                            lambda g, loop: dfa_profile(dfa, loop_labels(g, loop)), LOOP_PAIRS)


def _loop_solution(dmgts: Dmgts, loops, side):
    """A solution of the side's characteristic system whose edge counts are
    the Parikh vectors of the per-graph loops, or None."""
    system = build_char(dmgts, side).system
    for gi, g in enumerate(dmgts.graphs):
        counts = parikh_of(loops[gi])
        for ei in range(len(g.vass.edges)):
            system = system.with_fixed(edge_var(gi, ei), counts.get(ei, 0))
    return ilp_feasible(system)


def inseparability_witness(dmgts: Dmgts, dfa: Nfa, z_pair=None,
                           caps: LanguageCaps = LanguageCaps()) -> WitnessPair:
    """Words o_x ∈ L_X and o_y ∈ L_Y with o_x ~A o_y; such a pair refutes the
    candidate DFA as a separator of L_X from the Dyck language. Membership is
    verified by simulation, never trusted from the construction; the factor c
    and the repetition count k each range up to WITNESS_REPEATS."""
    if not is_zero_reaching(dmgts):
        raise ArgumentError("inseparability witnesses need a zero-reaching DMGTS")
    short = _short_witness(dmgts, dfa, caps)
    if short is not None:
        return short
    if z_pair is None:
        z_pair = find_z_pair(dmgts, dfa)
    if z_pair is None:
        raise ResourceExhausted("no profile-matched loop pair within the caps")
    mgts = dmgts.mgts
    covers = _covers(mgts, "inseparability witnesses need a perfect DMGTS")
    sx = scaled_support(build_char(dmgts, "x"), covers)
    sy = scaled_support(build_char(dmgts, "y"), covers)
    # rescale the Dyck side so (s_y - s_x) >= 1 on every edge
    t = 1
    for gi, g in enumerate(mgts.graphs):
        for ei in range(len(g.vass.edges)):
            have = sy[edge_var(gi, ei)]
            need = sx[edge_var(gi, ei)] + 1
            if have:
                t = max(t, -(-need // have))
    sy = {v: t * k for v, k in sy.items()}
    n_states = len(dfa.states)
    fact = factorial(n_states)
    sol_x = _loop_solution(dmgts, [a for a, _ in z_pair], "x")
    sol_y = _loop_solution(dmgts, [b for _, b in z_pair], "y")
    if sol_x is None or sol_y is None:
        raise ArgumentError("the loop pair does not solve the side system")
    for c in range(1, WITNESS_REPEATS + 1):
        ok = True
        parts = []
        for gi, g in enumerate(mgts.graphs):
            u, d = covers[gi]
            try:
                parts.append(build_diff_rem(
                    g,
                    {ei: sx[edge_var(gi, ei)] for ei in range(len(g.vass.edges))},
                    {ei: sy[edge_var(gi, ei)] for ei in range(len(g.vass.edges))},
                    u, d, n_states, c,
                ))
            except ArgumentError:
                ok = False
                break
        if not ok:
            continue
        hit = _common_k(dmgts, z_pair, parts, sol_x, sol_y)
        if hit is not None:
            o_x, o_y, k = hit
            px, py = dfa_profile(dfa, o_x), dfa_profile(dfa, o_y)
            if px != py:
                raise StructuralError("witness words have unequal profiles")
            return WitnessPair(o_x, o_y, {"k": k, "c": c, "n_states": n_states})
    raise ResourceExhausted(
        f"no verifying (c, k) within ({WITNESS_REPEATS}, {WITNESS_REPEATS})")


def _short_witness(dmgts, dfa, caps):
    lx = side_language_bounded(dmgts, "x", SHORT_WITNESS_LEN, "nat", caps).words
    if not lx:
        return None
    rejected = sorted(
        (tuple(a for a, _ in w) for w in lx if not run_word(dfa, tuple(a for a, _ in w))),
        key=lambda w: (len(w), w),
    )
    if not rejected:
        return None
    ly = side_language_bounded(dmgts, "y", SHORT_WITNESS_LEN, "nat", caps).words
    for ox in rejected:
        p = dfa_profile(dfa, ox)
        for wy in sorted(ly, key=lambda w: (len(w), w)):
            oy = tuple(a for a, _ in wy)
            if dfa_profile(dfa, oy) == p:
                return WitnessPair(ox, oy, {"short": True})
    return None


def _common_k(dmgts, z_pair, parts, sol_x, sol_y):
    mgts = dmgts.mgts
    iv, _ = mgts.combined()
    gates_x, gates_y = side_gates(dmgts, "x"), side_gates(dmgts, "y")
    for k in range(1, WITNESS_REPEATS + 1):
        run_x = _stitch(mgts, sol_x, [dr.u * k + tuple(sig_x) + dr.w_x * k + dr.d * k
                                      for dr, (sig_x, _) in zip(parts, z_pair)])
        if not intermediate_accepts(mgts, run_x, gates_x, frozenset(gates_x)):
            continue
        run_y = _stitch(mgts, sol_y, [dr.u * k + tuple(sig_y) + dr.w_y * k + dr.d * k
                                      for dr, (_, sig_y) in zip(parts, z_pair)])
        if not intermediate_accepts(mgts, run_y, gates_y, frozenset(gates_y)):
            continue
        return run_x.word(iv.vass), run_y.word(iv.vass), k
    return None
