"""The concrete bounded-language walks that `vasslab.model.language_bounded`
and `vasslab.driver.dyck_words` used before they moved onto the shared
`vasslab.automata.bounded_words` walk, kept verbatim as differential oracles
for the tests.

`language_bounded` starts one walk per admissible initial valuation in
[0, value_cap]^k and carries concrete counter values; `dyck_words` is a
prefix-pruned DFS. The range walk must give the same word sets, and
`dyck_words` the same list in the same order.
"""

from __future__ import annotations

from vasslab.model import EPSILON, CounterDomainSpec, InitVass, dyck_alphabet, letter_index
from vasslab.values import ExactOrOmega, is_omega, valuation_le, valuation_nonneg, vec_add


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


def dyck_words(n: int, max_len: int):
    """All Dyck words over Σ_n up to the length, by prefix-pruned DFS."""
    out = []
    letters = dyck_alphabet(n)

    def dfs(vals, word):
        if all(v == 0 for v in vals):
            out.append(tuple(word))
        if len(word) >= max_len:
            return
        for a in letters:
            i, d = letter_index(a, n)
            if vals[i - 1] + d < 0:
                continue
            vals[i - 1] += d
            word.append(a)
            dfs(vals, word)
            word.pop()
            vals[i - 1] -= d

    dfs([0] * n, [])
    return out
