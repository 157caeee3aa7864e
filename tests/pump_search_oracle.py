"""A brute-force search for covering sequences, used by the tests to check
`vasslab.structure.covering_sequences`: a capped DFS over rooted N-runs of a
precovering graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from vasslab.values import is_omega


@dataclass(frozen=True)
class PumpSearchResult:
    found: bool
    pruned: bool
    witness: tuple = None


def oracle_pump_search(p, run_len=10, counter_cap=30, seed=None) -> PumpSearchResult:
    """Brute-force search for a covering sequence: a rooted N-run strictly
    increasing all ω-decorated concretely-initialized counters."""
    vass = p.vass
    counters = vass.counters
    pump = sorted(p.omega_counters - frozenset(
        c for c in counters if is_omega(p.in_marking[c])
    ))
    if not pump:
        return PumpSearchResult(True, False, ())
    maxupd = max((abs(x) for e in vass.edges for x in e.update.values()), default=0) or 1
    if seed is None:
        seed = run_len * maxupd
    start = {c: (seed if is_omega(p.in_marking[c]) else p.in_marking[c]) for c in counters}
    goal = {c: start[c] + 1 for c in pump}
    pruned = [False]
    seen = set()

    def dfs(node, vals, path):
        if node == p.root and path and all(
            vals[counters.index(c)] >= goal[c] for c in pump
        ):
            return tuple(path)
        if len(path) >= run_len:
            return None
        key = (node, vals, len(path))
        if key in seen:
            return None
        seen.add(key)
        for i, e in sorted(vass.out_edges(node)):
            nv = tuple(v + e.update[c] for v, c in zip(vals, counters))
            if any(v < 0 for v in nv):
                continue
            if any(v > counter_cap + seed for v in nv):
                pruned[0] = True
                continue
            path.append(i)
            hit = dfs(e.dst, nv, path)
            path.pop()
            if hit is not None:
                return hit
        return None

    hit = dfs(p.root, tuple(start[c] for c in counters), [])
    return PumpSearchResult(hit is not None, pruned[0], hit)
