"""The audits of the paper's lemmas and the constructions that no vasslab CLI
verb runs, for the test modules that share them: the bounded falsifiers of
faithfulness and consistent specialization, the Rackoff cover, the
inseparability witnesses built from the diff/rem construction, the
reachability hardness gadget, and the run and word checks they rest on.

`src/vasslab` holds only what a CLI verb or the benchmark reaches
(`test_imports.test_every_package_definition_is_reachable`), so these live
here. `rackoff_cover` reads this module's `WITNESS_CAP` and `find_z_pair` its
`LOOP_LEN`: a test that changes one of those caps patches it here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import factorial
from operator import add

from vasslab.automata import Nfa, run_word
from vasslab.chareq import build_char, edge_var
from vasslab.errors import ArgumentError, ResourceExhausted, StructuralError
from vasslab.mgts import (
    Dmgts,
    LanguageCaps,
    PrecoveringGraph,
    _entry_ranges,
    _free_seed,
    _gates_pass,
    intermediate_accepts,
    side_gates,
    side_language_bounded,
)
from vasslab.model import (
    EPSILON,
    Edge,
    GenConfig,
    InitVass,
    Run,
    Vass,
    edge_walks,
    letter_index,
    parikh_of,
    search_run,
)
from vasslab.separator import (
    LOOP_LEN,
    LOOP_PAIRS,
    _covers,
    _loop_solution,
    _stitch,
    loop_labels,
    loop_pair_search,
    scaled_support,
)
from vasslab.structure import WITNESS_CAP, realization
from vasslab.values import clip, is_omega, vec_add


# -- runs and words ----------------------------------------------------------------

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


@dataclass(frozen=True)
class Violation:
    position: int
    counter: str
    value: int


def simulate(vass: Vass, start: GenConfig, edges, nonneg: frozenset):
    """Walk `edges` from `start`; returns the Run, or the first Violation of
    non-negativity on the counters in `nonneg` (empty: Z-semantics).
    Disconnected sequences are structural errors."""
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
        for c in sorted(nonneg):
            if val[c] < 0:
                return Violation(pos, c, val[c])
    return Run(start, tuple(edges))


def dfa_profile(dfa: Nfa, word) -> frozenset:
    """The state-change relation {(p, δ*(p, w))} of a total DFA."""
    if not dfa.is_deterministic() or not dfa.is_total():
        raise ArgumentError("dfa_profile needs a total deterministic automaton")
    pairs = set()
    for p in dfa.states:
        cur = p
        for a in word:
            if a not in dfa.alphabet:
                raise ArgumentError(f"letter {a!r} outside the DFA alphabet")
            (cur,) = dfa._step[(cur, a)]
        pairs.add((p, cur))
    return frozenset(pairs)


# -- bounded falsifiers of faithfulness and consistent specialization --------------

def is_zero_reaching(dmgts: Dmgts) -> bool:
    ys = dmgts.y_counters
    return all(dmgts.mgts.in_marking[c] == 0 for c in ys) and all(
        dmgts.mgts.out_marking[c] == 0 for c in ys
    )


def _modulo_not_exact_run(dmgts: Dmgts, y_in, y_out, run_len_cap, value_cap):
    """The first bounded Z-run (entry valuations in `_entry_ranges` order, runs
    in `edge_walks` order) that is intermediate accepting modulo mu on Y,
    starts at y_in and ends at y_out on every Y counter where those are
    finite, and is not intermediate accepting on Y exactly; None if none is
    found. X is read only by the boundary non-negativity checks, which both
    acceptances share, so one high X entry value loses no counterexample; a Y
    counter with an ω y_in ranges over the entry gate's residues up to
    value_cap.

    A walk can reach the last graph's root only through every bridge, in
    order, so each walk is its prefix plus one edge: it carries the prefix's
    valuation, graph index and whether the gates passed so far hold modulo
    mu and exactly, and extends them by that edge."""
    mgts = dmgts.mgts
    iv, origins = mgts.combined()
    vass = iv.vass
    counters = vass.counters
    ys = dmgts.y_counters
    exact, x_side = side_gates(dmgts, "y"), side_gates(dmgts, "x")
    modulo = {c: x_side[c] for c in exact}  # Y as the X side compares it
    per = _entry_ranges(counters, mgts.in_marking, modulo, value_cap,
                        _free_seed(vass, run_len_cap))
    for c in ys:
        if not is_omega(y_in[c]):
            per[c] = clip(per[c], y_in[c], y_in[c])
    pinned_out = [(k, y_out[c]) for k, c in enumerate(counters)
                  if c in ys and not is_omega(y_out[c])]
    # per edge: its update, and whether it is a bridge
    steps = [(tuple(e.update[c] for c in counters), o[0] == "b")
             for e, o in zip(vass.edges, origins)]
    graphs = mgts.graphs

    def gate(vals, marking):  # (modulo, exact) acceptance of one boundary valuation
        if any(v < 0 for v in vals):
            return False, False
        val = dict(zip(counters, vals))
        return _gates_pass(val, marking, modulo), _gates_pass(val, marking, exact)

    out = vass.successors()
    for start in product(*(per[c] for c in counters)):
        trail = [(start, 0, *gate(start, graphs[0].in_marking))]  # one state per prefix
        for end, seq in edge_walks(out, iv.init.node, run_len_cap):
            if seq:
                vals, gi, mod_ok, exact_ok = trail[len(seq) - 1]
                del trail[len(seq):]
                update, bridge = steps[seq[-1]]
                nvals = tuple(map(add, vals, update))
                if bridge:  # leave graph gi and enter graph gi + 1, each at its root
                    m_out, e_out = gate(vals, graphs[gi].out_marking)
                    m_in, e_in = gate(nvals, graphs[gi + 1].in_marking)
                    mod_ok = mod_ok and m_out and m_in
                    exact_ok = exact_ok and e_out and e_in
                    gi += 1
                trail.append((nvals, gi, mod_ok, exact_ok))
            vals, gi, mod_ok, exact_ok = trail[-1]
            if end != iv.final.node or not mod_ok:  # no intermediate acceptance ends elsewhere
                continue
            if any(vals[k] != v for k, v in pinned_out):
                continue
            m_out, e_out = gate(vals, graphs[-1].out_marking)
            if m_out and not (exact_ok and e_out):
                return Run(GenConfig(iv.init.node, dict(zip(counters, start))), seq)
    return None


def faithfulness_falsify(dmgts: Dmgts, run_len_cap: int):
    """Search bounded Z-runs for a counterexample to the faithfulness inclusion;
    None means none found (a semidecision, not a proof)."""
    if not is_zero_reaching(dmgts):
        raise ArgumentError("faithfulness is defined for zero-reaching DMGTS")
    # Acc_{Z,Y} pins Y at the zero extremal markings, so no entry value ranges
    mgts = dmgts.mgts
    return _modulo_not_exact_run(dmgts, mgts.in_marking, mgts.out_marking, run_len_cap, 0)


def consistent_specialization_falsify(n1: Dmgts, n2: Dmgts, run_len_cap: int, value_cap: int):
    """Bounded search for a violation of the consistent-specialization
    conditions of n1 w.r.t. n2 (a single-graph DMGTS); None if none found."""
    if n1.mu != n2.mu:
        raise ArgumentError("consistent specialization requires equal mu")
    if (n1.mgts.counters, n1.y_counters) != (n2.mgts.counters, n2.y_counters):
        raise ArgumentError("consistent specialization requires equal counters and Y counters")
    if len(n2.graphs) != 1:
        raise ArgumentError("the specialized object must be a single precovering graph")
    p = n2.graphs[0]
    iv1, _ = n1.mgts.combined()
    in1, out1 = n1.mgts.in_marking, n1.mgts.out_marking
    full = side_gates(n2, "full")
    if not (_gates_pass(in1, p.in_marking, full) and _gates_pass(out1, p.out_marking, full)):
        return ("markings", None)

    # (1): every bounded run of n1 has a label/value-equivalent walk in n2
    def steps(vass):  # per edge: its label and its update on p's counters
        return [(e.label, tuple(sorted((c, e.update.get(c, 0)) for c in p.vass.counters)))
                for e in vass.edges]

    steps2, out2 = steps(p.vass), p.vass.successors()
    sigs2 = {tuple(steps2[i] for i in seq) for q in p.vass.nodes
             for _, seq in edge_walks(out2, q, run_len_cap)}
    vass1 = iv1.vass
    steps1, out1 = steps(vass1), vass1.successors()
    for q in vass1.nodes:
        for _, seq in edge_walks(out1, q, run_len_cap):
            if tuple(steps1[i] for i in seq) not in sigs2:
                return ("no-matching-run", seq)

    # (2): bounded modulo-accepting runs of n1 that agree with p's extremal
    # Y-markings are intermediate accepting on Y
    run = _modulo_not_exact_run(n1, p.in_marking, p.out_marking, run_len_cap, value_cap)
    return None if run is None else ("condition-2", run)


# -- the reachability hardness gadget ----------------------------------------------

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


# -- the Rackoff cover -------------------------------------------------------------

def rackoff_cover(p: PrecoveringGraph, run: Run, jprime, C):
    """A J'-run from the run's start to its final node with every J' counter
    >= C, found by exact BFS over at most WITNESS_CAP states (desk-scale; the
    inductive cut-and-splice bound is not materialized). Verified by
    simulation before returning."""
    vass = p.vass
    js = sorted(set(jprime))
    start_vals = [run.start.valuation[c] for c in js]
    if any(v < 0 for v in start_vals):
        raise ArgumentError("premise violated: J' start values must be non-negative")
    target_node = run.final_config(vass).node
    path, _ = search_run(vass, run.start.node, start_vals, js,
                         lambda node, vals: node == target_node and all(v >= C for v in vals),
                         state_cap=WITNESS_CAP)
    if path is None:
        raise ResourceExhausted("no covering J'-run found within the explored space")
    if isinstance(simulate(vass, run.start, path, frozenset(js)), Violation):
        raise StructuralError("rackoff cover failed verification")
    return path


# -- diff / rem and inseparability witnesses ---------------------------------------

WITNESS_REPEATS = 64  # largest factor c and repetition count k of an inseparability witness


SHORT_WITNESS_LEN = 6  # word length of the side languages a short witness is read from


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


def find_z_pair(dmgts: Dmgts, dfa: Nfa):
    """Loop pairs with ~A-equal labels (equal DFA profiles) whose Parikh sums
    solve Char_X resp. Char_Y; None if none within LOOP_LEN and LOOP_PAIRS."""
    return loop_pair_search(dmgts, LOOP_LEN,
                            lambda g, loop: dfa_profile(dfa, loop_labels(g, loop)), LOOP_PAIRS)


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
