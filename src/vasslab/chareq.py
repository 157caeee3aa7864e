"""Characteristic systems of MGTS/DMGTS: Kirchhoff and marking equations with
the per-side acceptance constraints, their homogeneous variants, the support,
and full-support solutions.

Variables: ("edge", gi, ei) counts edge ei of graph gi; ("io", gi, "in"|"out",
counter) holds the valuation on entering resp. exiting graph gi.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import ArgumentError
from .mgts import Dmgts, Mgts, side_gates
from .solver import (
    UNBOUNDED,
    LinSystem,
    Solution,
    lp_max,
    lp_point,
)
from .values import is_omega


def edge_var(gi, ei):
    return ("edge", gi, ei)


def io_var(gi, io, counter):
    return ("io", gi, io, counter)


class CharSystem:
    def __init__(self, source, side, mu, system: LinSystem, homogeneous=False):
        self.source = source
        self.side = side
        self.mu = mu
        self.system = system
        self.homogeneous = homogeneous

    @property
    def mgts(self) -> Mgts:
        return self.source.mgts if isinstance(self.source, Dmgts) else self.source


def build_char(source, side="full", homogeneous=False) -> CharSystem:
    """The characteristic system of an MGTS (side "full") or of one side of a
    DMGTS, with the side's `side_gates` on every finite entry and exit
    marking: a gate of modulus 0 fixes the variable, one of modulus m >= 1
    adds a congruence modulo m.

    All entry/exit and edge variables are non-negative; bridging equalities
    link consecutive graphs. The homogeneous variant zeroes concrete marking
    values, congruence residues, and bridge right-hand sides, preserving the
    ω-pattern.
    """
    gates = side_gates(source, side)
    mgts, mu = (source.mgts, source.mu) if isinstance(source, Dmgts) else (source, 1)
    counters = mgts.counters

    vars = []
    for gi, g in enumerate(mgts.graphs):
        vars.extend(edge_var(gi, ei) for ei in range(len(g.vass.edges)))
    for gi in range(len(mgts.graphs)):
        for io in ("in", "out"):
            vars.extend(io_var(gi, io, c) for c in counters)

    eqs = []
    fixed = {}
    congruences = []
    for gi, g in enumerate(mgts.graphs):
        for q in g.vass.nodes:
            coeffs = {}
            for ei, e in enumerate(g.vass.edges):
                if e.dst == q:
                    coeffs[edge_var(gi, ei)] = coeffs.get(edge_var(gi, ei), 0) + 1
                if e.src == q:
                    coeffs[edge_var(gi, ei)] = coeffs.get(edge_var(gi, ei), 0) - 1
            eqs.append((coeffs, 0))
        for c in counters:
            coeffs = {io_var(gi, "in", c): 1, io_var(gi, "out", c): -1}
            for ei, e in enumerate(g.vass.edges):
                if e.update[c]:
                    coeffs[edge_var(gi, ei)] = e.update[c]
            eqs.append((coeffs, 0))
        for io, marking in (("in", g.in_marking), ("out", g.out_marking)):
            for c in counters:
                m = gates.get(c)
                if m is None or is_omega(marking[c]):
                    continue
                value = 0 if homogeneous else marking[c]
                if m == 0:
                    fixed[io_var(gi, io, c)] = value
                else:
                    congruences.append(({io_var(gi, io, c): 1}, value % m, m))
    for bi, u in enumerate(mgts.bridges):
        for c in counters:
            coeffs = {io_var(bi + 1, "in", c): 1, io_var(bi, "out", c): -1}
            eqs.append((coeffs, 0 if homogeneous else u.update.get(c, 0)))

    system = LinSystem(vars, eqs, nonneg=vars, fixed=fixed, congruences=congruences)
    return CharSystem(source, side, mu, system, homogeneous)


def homogenize(cs: CharSystem) -> CharSystem:
    return build_char(cs.source, cs.side, homogeneous=True)


def support(cs: CharSystem) -> frozenset:
    """Variables that take a positive value in some solution of the homogeneous
    system. The rational relaxation suffices: homogeneous integer cones are
    rational-scalable (congruences hold after scaling by the modulus)."""
    hom = cs if cs.homogeneous else homogenize(cs)
    out = set()
    for v in hom.system.vars:
        m = lp_max(hom.system, v)
        if m is UNBOUNDED or (m is not None and m > 0):
            out.add(v)
    return frozenset(out)


def full_support_solution(cs: CharSystem, sup=None) -> Solution:
    """A homogeneous integer solution positive on every support variable: the
    sum of per-variable rational witnesses, scaled to integrality and to the
    congruence modulus."""
    hom = cs if cs.homogeneous else homogenize(cs)
    if sup is None:
        sup = support(cs)
    total = {v: Fraction(0) for v in hom.system.vars}
    for v in sorted(sup, key=repr):
        point = lp_point(hom.system, lower={v: 1})
        if point is None:
            raise ArgumentError(f"support witness vanished for {v!r}")
        for x, val in point.items():
            total[x] += val
    denom = lcm(*(f.denominator for f in total.values())) if total else 1
    scale = denom * cs.mu
    assignment = {v: int(f * scale) for v, f in total.items()}
    return Solution(assignment, hom.system)
