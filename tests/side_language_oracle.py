"""The concrete side-language walk that `vasslab.mgts.side_language_bounded`
used before its walk over value ranges, kept verbatim as a differential
oracle for the tests.

It starts one memoized walk per entry valuation in [0, value_cap]^k and
carries concrete counter values; the words and the `truncated` flag must equal
those of the range walk. `_entry_candidates`, which the package no longer
has, is kept here verbatim too. The side's gates come from `side_gates`;
`_passes` compares against them on its own, so the oracle does not share the
package's gate check.
"""

from __future__ import annotations

from vasslab.mgts import (
    BoundedLanguage,
    LanguageCaps,
    _entry_ranges,
    side_gates,
)
from vasslab.model import EPSILON
from vasslab.values import OMEGA, vec_add


def _passes(val, marking, gates):
    """val >= 0 on every counter, and each gated counter equal (modulus 0) or
    congruent (modulus m) to a finite marking."""
    if any(v < 0 for v in val.values()):
        return False
    for c, m in gates.items():
        bound = marking[c]
        if bound is OMEGA:
            continue
        if not (val[c] == bound if m == 0 else (val[c] - bound) % m == 0):
            return False
    return True


def _entry_candidates(counters, in_marking, gates, value_cap, free_seed):
    """Concrete entry valuations compatible with the entry gates, capped: the
    product of the per-counter `_entry_ranges`."""
    per = _entry_ranges(counters, in_marking, gates, value_cap, free_seed)
    starts = [{}]
    for c in counters:
        starts = [dict(s, **{c: v}) for s in starts for v in per[c]]
    return starts


def side_language_bounded(dmgts: Dmgts, side, max_len: int, kind="nat",
                          caps: LanguageCaps = LanguageCaps()) -> BoundedLanguage:
    """Bounded enumeration of the annotated side language: all λ_#(ρ) with
    |word| <= max_len found within the caps. Exact up to the caps; the flag
    reports whether any branch was cut off."""
    mgts = dmgts.mgts
    gates = side_gates(dmgts, side)
    domain = frozenset() if kind == "int" else frozenset(gates)
    iv, origins = mgts.combined()
    vass = iv.vass
    counters = vass.counters
    truncated = [False]
    gated = set(gates)
    # ungated counters are monotone: one sufficiently high entry value is exact
    maxupd = max((abs(x) for e in vass.edges for x in e.update.values()), default=0) or 1
    free_seed = caps.max_run_len * maxupd

    out_edges_by_graph = {}
    for i, org in enumerate(origins):
        if org[0] == "g":
            out_edges_by_graph.setdefault((org[1], vass.edges[i].src), []).append(i)
    bridge_index = {origins[i][1]: i for i in range(len(origins)) if origins[i][0] == "b"}

    def gate_ok(val, marking):
        return _passes(val, marking, gates)

    memo = {}

    def walk(gi, node, val, wbudget, sbudget):
        key = (gi, node, tuple(val[c] for c in counters), wbudget, sbudget)
        if key in memo:
            return memo[key]
        memo[key] = frozenset()  # cycle guard
        acc = set()
        g = mgts.graphs[gi]
        if node == g.root and gate_ok(val, g.out_marking):
            if gi == len(mgts.graphs) - 1:
                acc.add(())
            else:
                u = mgts.bridges[gi]
                bi = bridge_index[gi]
                nval = vec_add(val, vass.edges[bi].update)
                nwb = wbudget - (0 if u.label == EPSILON else 1)
                g2 = mgts.graphs[gi + 1]
                if nwb >= 0 and sbudget >= 1 and gate_ok(nval, g2.in_marking):
                    suf = walk(gi + 1, g2.root, nval, nwb, sbudget - 1)
                    pre = () if u.label == EPSILON else ((u.label, True),)
                    acc |= {pre + s for s in suf}
        if sbudget >= 1:
            for i in out_edges_by_graph.get((gi, node), ()):
                e = vass.edges[i]
                nval = vec_add(val, e.update)
                if any(nval[c] < 0 for c in e.update if c in domain):
                    continue
                if any(abs(nval[c]) > caps.value_cap for c in gated):
                    truncated[0] = True
                    continue
                nwb = wbudget - (0 if e.label == EPSILON else 1)
                if nwb < 0:
                    continue
                suf = walk(gi, e.dst, nval, nwb, sbudget - 1)
                pre = () if e.label == EPSILON else ((e.label, False),)
                acc |= {pre + s for s in suf}
        memo[key] = frozenset(acc)
        return memo[key]

    words = set()
    g0 = mgts.graphs[0]
    try:
        for sval in _entry_candidates(counters, g0.in_marking, gates,
                                      caps.value_cap, free_seed):
            if not gate_ok(sval, g0.in_marking):
                continue
            words |= walk(0, g0.root, sval, max_len, caps.max_run_len)
    finally:
        # walk refers to itself; break the cycle so the memo is freed now,
        # not at the next full garbage collection
        del walk
    return BoundedLanguage(frozenset(words), truncated[0])
