"""The hand-rolled run searches that `model.search_run` and `model.edge_walks`
replaced, kept verbatim as differential oracles: `oracle_bfs` (the driver's
capped N-reachability BFS), `_pump_witness` (structure), and `rackoff_cover`
and the two bounded falsifiers (now in `audits`) with the `_entry_candidates`
they enumerated starts with. Only the package-relative imports became absolute,
and the acceptance arguments became gate maps (counter -> modulus, see
`side_gates`): `_valuation_le` and `_accepts` are private copies, rewritten
to the maps, of the `valuation_le` and `model.accepts` the package no
longer has. `tests/test_search_oracle.py` compares them with the package.
"""

from __future__ import annotations

from vasslab.driver import BfsResult
from vasslab.errors import ArgumentError, ResourceExhausted, StructuralError
from vasslab.mgts import (
    Dmgts,
    PrecoveringGraph,
    _entry_ranges,
    _free_seed,
    intermediate_accepts,
)
from vasslab.model import EPSILON, GenConfig, InitVass, Run
from vasslab.values import gate_ok, is_omega

from audits import Violation, is_zero_reaching, simulate


def _valuation_le(val: dict, bound: dict, gates: dict) -> bool:
    """val passes every gate against bound."""
    return all(gate_ok(val[c], bound[c], m) for c, m in gates.items())


def _accepts(init_vass: InitVass, run: Run, gates: dict, nonneg: frozenset) -> bool:
    """True iff the run keeps `nonneg` >= 0 and its extremal configurations
    pass the gates against init resp. final."""
    vass = init_vass.vass
    if isinstance(simulate(vass, run.start, run.edge_seq, nonneg), Violation):
        return False
    last = run.final_config(vass)
    if run.start.node != init_vass.init.node or last.node != init_vass.final.node:
        return False
    return _valuation_le(run.start.valuation, init_vass.init.valuation, gates) and _valuation_le(
        last.valuation, init_vass.final.valuation, gates
    )


def _entry_candidates(counters, in_marking, gates, value_cap, free_seed):
    """Concrete entry valuations compatible with the entry gates, capped: the
    product of the per-counter `_entry_ranges`."""
    per = _entry_ranges(counters, in_marking, gates, value_cap, free_seed)
    starts = [{}]
    for c in counters:
        starts = [dict(s, **{c: v}) for s in starts for v in per[c]]
    return starts


def oracle_bfs(iv: InitVass, counter_cap=40, length_cap=12) -> BfsResult:
    """Explicit-state N-reachability with value and length caps. `unreachable`
    is certified only when no branch was pruned by the caps."""
    if any(is_omega(v) for v in iv.init.valuation.values()):
        raise ArgumentError("oracle_bfs needs a finite initial valuation")
    vass = iv.vass
    counters = vass.counters
    start = (iv.init.node, tuple(iv.init.valuation[c] for c in counters))
    seen = {start: ()}
    frontier = [start]
    pruned = False

    def matches_final(node, vals):
        if node != iv.final.node:
            return False
        for c, v in zip(counters, vals):
            want = iv.final.valuation[c]
            if not is_omega(want) and v != want:
                return False
        return True

    depth = 0
    while frontier and depth <= length_cap:
        nxt = []
        for node, vals in frontier:
            if matches_final(node, vals):
                return BfsResult("reachable", seen[(node, vals)])
            for _, e in sorted(vass.out_edges(node)):
                nv = tuple(v + e.update[c] for v, c in zip(vals, counters))
                if any(v < 0 for v in nv):
                    continue
                if any(v > counter_cap for v in nv):
                    pruned = True
                    continue
                key = (e.dst, nv)
                if key in seen:
                    continue
                word = seen[(node, vals)]
                seen[key] = word if e.label == EPSILON else word + (e.label,)
                nxt.append(key)
        frontier = nxt
        depth += 1
    if frontier:
        pruned = True  # length cap cut the search
    return BfsResult("inconclusive" if pruned else "unreachable")


def _pump_witness(p: PrecoveringGraph, pump, witness_cap):
    vass = p.vass
    counters = vass.counters
    maxupd = max((abs(x) for e in vass.edges for x in e.update.values()), default=0) or 1
    for depth in (8, 16, 32, 64):
        seed = depth * maxupd + 1
        start = {
            c: (seed if is_omega(p.in_marking[c]) else p.in_marking[c]) for c in counters
        }
        goal = {c: start[c] + 1 for c in pump}
        seen = {}
        frontier = [(p.root, tuple(start[c] for c in counters), ())]
        seen[(p.root, frontier[0][1])] = ()
        steps = 0
        while frontier:
            node, val, path = frontier.pop(0)
            if node == p.root and all(
                val[counters.index(c)] >= goal[c] for c in pump
            ) and path:
                return path
            if len(path) >= depth:
                continue
            for i, e in sorted(vass.out_edges(node)):
                nval = tuple(
                    val[ci] + e.update[c] for ci, c in enumerate(counters)
                )
                if any(v < 0 for v in nval):
                    continue
                steps += 1
                if steps > witness_cap:
                    return None
                key = (e.dst, nval)
                if key in seen:
                    continue
                seen[key] = None
                frontier.append((e.dst, nval, path + (i,)))
    return None


def rackoff_cover(p: PrecoveringGraph, run: Run, jprime, C, state_cap=200000):
    """A J'-run from the run's start to its final node with every J' counter
    >= C, found by exact BFS (desk-scale; the inductive cut-and-splice bound is
    not materialized). Verified by simulation before returning."""
    vass = p.vass
    js = sorted(set(jprime))
    start_vals = tuple(run.start.valuation[c] for c in js)
    if any(v < 0 for v in start_vals):
        raise ArgumentError("premise violated: J' start values must be non-negative")
    target_node = run.final_config(vass).node
    seen = {(run.start.node, start_vals): ()}
    frontier = [(run.start.node, start_vals)]
    while frontier:
        node, vals = frontier.pop(0)
        path = seen[(node, vals)]
        if node == target_node and all(v >= C for v in vals):
            chk = simulate(vass, GenConfig(run.start.node, dict(run.start.valuation)),
                           path, frozenset(js))
            if isinstance(chk, Violation):
                raise StructuralError("rackoff cover failed verification")
            return path
        for i, e in sorted(vass.out_edges(node)):
            nvals = tuple(v + e.update[c] for v, c in zip(vals, js))
            if any(v < 0 for v in nvals):
                continue
            key = (e.dst, nvals)
            if key in seen:
                continue
            if len(seen) > state_cap:
                raise ResourceExhausted(f"rackoff cover state cap {state_cap} exceeded")
            seen[key] = path + (i,)
            frontier.append(key)
    raise ResourceExhausted("no covering J'-run found within the explored space")


def faithfulness_falsify(dmgts: Dmgts, run_len_cap=8, value_cap=8):
    """Search bounded Z-runs for a counterexample to the faithfulness inclusion;
    None means none found (a semidecision, not a proof)."""
    if not is_zero_reaching(dmgts):
        raise ArgumentError("faithfulness is defined for zero-reaching DMGTS")
    mgts = dmgts.mgts
    iv, _ = mgts.combined()
    vass = iv.vass
    ys = dmgts.y_counters
    acc_gates = dict.fromkeys(ys, 0)
    mod_gates = dict.fromkeys(ys, dmgts.mu)

    # Z-semantics: X is read only by the boundary non-negativity checks, which
    # both acceptances share, so one high X entry value loses no counterexample
    starts = []
    for xv in _entry_candidates(vass.counters, mgts.in_marking, mod_gates,
                                value_cap, _free_seed(vass, run_len_cap)):
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
            if not _accepts(iv, run, acc_gates, frozenset()):
                continue
            try:
                mod_ok = intermediate_accepts(mgts, run, mod_gates, frozenset())
            except StructuralError:
                continue
            if not mod_ok:
                continue
            if not intermediate_accepts(mgts, run, acc_gates, frozenset()):
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
    full = dict.fromkeys(p.vass.counters, 0)
    if not _valuation_le(in1, p.in_marking, full) or not _valuation_le(
        out1, p.out_marking, full
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
    mod_gates = dict.fromkeys(ys, n1.mu)
    acc_gates = dict.fromkeys(ys, 0)
    # X is read only by the boundary non-negativity checks, as in
    # faithfulness_falsify: one high X entry value loses no counterexample
    for sval in _entry_candidates(vass1.counters, in1, mod_gates, value_cap,
                                  _free_seed(vass1, run_len_cap)):
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
                if not intermediate_accepts(n1.mgts, run, mod_gates, frozenset()):
                    continue
            except StructuralError:
                continue
            last = run.final_config(vass1)
            first_ok = _valuation_le(
                {c: sval[c] for c in ys}, {c: p.in_marking[c] for c in ys}, acc_gates
            )
            last_ok = _valuation_le(
                {c: last.valuation[c] for c in ys},
                {c: p.out_marking[c] for c in ys},
                acc_gates,
            )
            if first_ok and last_ok and not intermediate_accepts(
                n1.mgts, run, acc_gates, frozenset()
            ):
                return ("condition-2", run)
    return None
