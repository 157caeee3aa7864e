"""Exact linear programming and integer feasibility.

Systems hold equalities, selective non-negativity, fixed values, and
congruences. The LP layer is an exact two-phase simplex with Bland's rule on
an integer tableau: every row is a positive multiple of its rational row with
coprime int entries, and the reduced-cost row is kept in the tableau and
updated by each pivot like the others. Integer feasibility is a lattice
pre-check (`lattice`), then branch-and-bound over the exact relaxation with a
deterministic branch order (lowest-index fractional variable, floor first).
No floating point anywhere.
"""

from __future__ import annotations

import json
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd, lcm

from .errors import ArgumentError, ResourceExhausted
from .lattice import solve

UNBOUNDED = "unbounded"

ILP_NODES = 100_000     # branch-and-bound nodes of one integer feasibility check
VALUE_RANGE_CAP = 512   # candidate values `enumerate_var_values` tests one ILP each

# the LP and ILP call counts of the decomposition step open in this context
STATS = ContextVar("STATS", default=None)


class LinSystem:
    def __init__(self, vars, eqs=(), nonneg=(), fixed=None, congruences=()):
        self.vars = tuple(vars)
        varset = set(self.vars)
        if len(varset) != len(self.vars):
            raise ArgumentError("duplicate variables")
        self.eqs = tuple((dict(coeffs), rhs) for coeffs, rhs in eqs)
        self.nonneg = frozenset(nonneg)
        self.fixed = dict(fixed or {})
        self.congruences = tuple((dict(coeffs), r, m) for coeffs, r, m in congruences)
        for coeffs, _ in self.eqs:
            if not set(coeffs) <= varset:
                raise ArgumentError("equation references undeclared variables")
        for coeffs, _, m in self.congruences:
            if not set(coeffs) <= varset:
                raise ArgumentError("congruence references undeclared variables")
            if m < 1:
                raise ArgumentError("congruence modulus must be >= 1")
        if not self.nonneg <= varset or not set(self.fixed) <= varset:
            raise ArgumentError("constraint on undeclared variable")

    def with_fixed(self, var, value) -> "LinSystem":
        fixed = dict(self.fixed)
        fixed[var] = value
        return LinSystem(self.vars, self.eqs, self.nonneg, fixed, self.congruences)

    def satisfied_by(self, assignment) -> bool:
        for v in self.vars:
            if v not in assignment:
                return False
        for coeffs, rhs in self.eqs:
            if sum(c * assignment[x] for x, c in coeffs.items()) != rhs:
                return False
        for v in self.nonneg:
            if assignment[v] < 0:
                return False
        for v, k in self.fixed.items():
            if assignment[v] != k:
                return False
        for coeffs, r, m in self.congruences:
            if (sum(c * assignment[x] for x, c in coeffs.items()) - r) % m != 0:
                return False
        return True

    def to_json(self) -> dict:
        key = lambda v: v if isinstance(v, str) else repr(v)
        return {
            "vars": [key(v) for v in self.vars],
            "eqs": [[{key(x): c for x, c in coeffs.items()}, rhs] for coeffs, rhs in self.eqs],
            "nonneg": sorted(key(v) for v in self.nonneg),
            "fixed": {key(v): k for v, k in sorted(self.fixed.items(), key=repr)},
            "congruences": [
                [{key(x): c for x, c in coeffs.items()}, r, m]
                for coeffs, r, m in self.congruences
            ],
        }

    def dump(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


@dataclass(frozen=True)
class Solution:
    """An integer assignment; checked against its system on construction."""

    assignment: dict
    system: LinSystem

    def __post_init__(self):
        object.__setattr__(self, "assignment", dict(self.assignment))
        if not self.system.satisfied_by(self.assignment):
            raise ArgumentError("assignment does not satisfy the system")

    def __getitem__(self, var):
        return self.assignment[var]


# -- integer simplex ----------------------------------------------------------
#
# Every tableau row is a list of ints: a positive multiple of its rational row,
# divided by its content. The last row is the reduced-cost row, kept the same
# way and updated by each pivot like the others. A basic column holds a
# positive entry in its own row and zeros elsewhere. Positive scaling changes
# no sign and no ratio, so Bland's rule takes the pivots of the rational
# tableau exactly.

def _integer_row(row):
    """A row of Fractions scaled by a positive factor to coprime ints."""
    pairs = [x.as_integer_ratio() for x in row]
    den = lcm(*[d for _, d in pairs])
    ints = [n * (den // d) for n, d in pairs]
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def _eliminate(row, prow, c, nz):
    """row minus row[c]/prow[c] times prow, as coprime ints; prow[c] > 0 and
    nz lists the (column, entry) pairs where prow is non-zero."""
    p, f = prow[c], row[c]
    g = gcd(p, f)
    p, f = p // g, f // g
    out = [p * x for x in row] if p != 1 else row[:]
    for j, x in nz:
        out[j] -= f * x
    g = gcd(*out)
    return [x // g for x in out] if g > 1 else out


def _pivot(rows, basis, r, c):
    prow = rows[r]
    if prow[c] < 0:
        prow = rows[r] = [-x for x in prow]
    nz = [(j, x) for j, x in enumerate(prow) if x]
    for i, row in enumerate(rows):
        if i != r and row[c]:
            rows[i] = _eliminate(row, prow, c, nz)
    basis[r] = c


def _reduced_cost_row(rows, basis, cost):
    """The reduced costs of `cost`, with -value in the rhs column, as coprime ints."""
    red = _integer_row(list(cost) + [0])
    for row, b in zip(rows, basis):
        if red[b]:
            red = _eliminate(red, row, b, [(j, x) for j, x in enumerate(row) if x])
    return red


def _simplex_core(rows, basis, ncols):
    """Maximize over a tableau canonical in `basis` whose last row holds the
    reduced costs. Returns status."""
    while True:
        red = rows[-1]
        entering = -1
        for j in range(ncols):
            if red[j] > 0:
                entering = j
                break  # Bland: smallest index
        if entering < 0:
            return "optimal"
        leaving = -1
        for i in range(len(basis)):
            a = rows[i][entering]
            if a > 0:
                if leaving < 0:
                    leaving = i
                    continue
                # rhs_i / a against rhs_l / a_l, cross-multiplied
                lhs = rows[i][-1] * rows[leaving][entering]
                rhs = rows[leaving][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    leaving = i
        if leaving < 0:
            return "unbounded"
        _pivot(rows, basis, leaving, entering)


def _solve_standard(A, b, c):
    """max c·x s.t. Ax = b, x >= 0; A rows of Fractions.

    Returns (status, value, x) with status optimal | unbounded | infeasible.
    """
    if (stats := STATS.get()) is not None:
        stats["lp_calls"] += 1
    m, n = len(A), len(c)
    # phase 1: artificials n..n+m-1
    rows = []
    for i in range(m):
        *row, rhs, one = _integer_row(list(A[i]) + [b[i], 1])
        if rhs < 0:
            row, rhs = [-x for x in row], -rhs
        art = [0] * m
        art[i] = one
        rows.append(row + art + [rhs])
    basis = [n + i for i in range(m)]
    rows.append(_reduced_cost_row(rows, basis, [0] * n + [-1] * m))
    _simplex_core(rows, basis, n + m)
    if rows.pop()[-1] > 0:  # phase-1 optimum < 0
        return "infeasible", None, None
    # drive artificials out of the basis; drop redundant rows
    keep = []
    for i in range(m):
        if basis[i] >= n:
            piv = next((j for j in range(n) if rows[i][j] != 0), None)
            if piv is None:
                continue  # redundant row
            _pivot(rows, basis, i, piv)
        keep.append(i)
    rows = [_integer_row(rows[i][:n] + rows[i][-1:]) for i in keep]
    basis = [basis[i] for i in keep]
    rows.append(_reduced_cost_row(rows, basis, c))
    status = _simplex_core(rows, basis, n)
    x = [Fraction(0)] * n
    for row, bi in zip(rows, basis):
        x[bi] = Fraction(row[-1], row[bi])
    if status == "unbounded":
        return "unbounded", None, x
    value = sum(c[j] * x[j] for j in range(n))
    return "optimal", value, x


class _Relaxation:
    """Maps a LinSystem (congruences dropped) plus bound cuts onto standard form.

    Sign-free variables are modeled as differences of two non-negative parts.
    """

    def __init__(self, system: LinSystem, lower=None, upper=None):
        self.system = system
        self.cols = []  # (var, sign)
        self.colidx = {}
        for v in system.vars:
            self.colidx[v] = len(self.cols)
            self.cols.append((v, 1))
            if v not in system.nonneg:
                self.cols.append((v, -1))
        rows = []
        rhs = []

        def add_row(coeffs, b):
            row = [Fraction(0)] * len(self.cols)
            for x, cf in coeffs.items():
                j = self.colidx[x]
                row[j] += Fraction(cf)
                if j + 1 < len(self.cols) and self.cols[j + 1] == (x, -1):
                    row[j + 1] -= Fraction(cf)
            rows.append(row)
            rhs.append(Fraction(b))

        for coeffs, b in system.eqs:
            add_row(coeffs, b)
        for v, k in system.fixed.items():
            add_row({v: 1}, k)
        self._slacks = 0
        self._rows, self._rhs = rows, rhs
        for v, k in (lower or {}).items():  # v >= k : v - s = k
            self._add_bound(v, k, -1)
        for v, k in (upper or {}).items():  # v <= k : v + s = k
            self._add_bound(v, k, 1)

    def _add_bound(self, v, k, sign):
        j = self.colidx[v]
        row = [Fraction(0)] * len(self.cols)
        row[j] = Fraction(1)
        if j + 1 < len(self.cols) and self.cols[j + 1] == (v, -1):
            row[j + 1] = Fraction(-1)
        for r in self._rows:
            r.append(Fraction(0))
        self.cols.append((f"__s{self._slacks}", 1))
        self._slacks += 1
        row.append(Fraction(sign))
        self._rows.append(row)
        self._rhs.append(Fraction(k))

    def optimize(self, objective, maximize=True):
        c = [Fraction(0)] * len(self.cols)
        for v, cf in objective.items():
            j = self.colidx[v]
            c[j] = Fraction(cf)
            if j + 1 < len(self.cols) and self.cols[j + 1] == (v, -1):
                c[j + 1] = Fraction(-cf)
        if not maximize:
            c = [-x for x in c]
        status, value, x = _solve_standard(self._rows, self._rhs, c)
        if status != "optimal":
            return status, None, self._extract(x) if x else None
        return status, (value if maximize else -value), self._extract(x)

    def _extract(self, x):
        if x is None:
            return None
        out = {}
        for j, (v, sign) in enumerate(self.cols):
            if isinstance(v, str) and v.startswith("__s"):
                continue
            out[v] = out.get(v, Fraction(0)) + sign * x[j]
        return out


def _rewrite_congruences(system: LinSystem) -> LinSystem:
    """Each congruence Σc·x ≡ r (mod m) becomes Σc·x - m·t = r with a fresh t.

    For a single non-negative variable with coefficient 1 the residue is
    normalized into [0, m) and t is non-negative too; multi-variable
    congruences keep t sign-free.
    """
    if not system.congruences:
        return system
    vars = list(system.vars)
    nonneg = set(system.nonneg)
    eqs = list(system.eqs)
    for i, (coeffs, r, m) in enumerate(system.congruences):
        t = ("__t", i)
        vars.append(t)
        row = dict(coeffs)
        row[t] = -m
        if len(coeffs) == 1:
            (x, c), = coeffs.items()
            if c == 1 and x in nonneg:
                nonneg.add(t)
                r = r % m
        eqs.append((row, r))
    return LinSystem(vars, eqs, nonneg, system.fixed, ())


def lp_feasible(system: LinSystem) -> bool:
    """Rational feasibility of the relaxation (congruences ignored)."""
    status, _, _ = _Relaxation(system).optimize({}, maximize=True)
    return status != "infeasible"


def lp_opt(system: LinSystem, objective: dict, maximize=True):
    """Exact optimum of a linear objective over the relaxation.

    Returns a Fraction, UNBOUNDED, or None when the relaxation is infeasible.
    """
    status, value, _ = _Relaxation(system).optimize(objective, maximize=maximize)
    if status == "infeasible":
        return None
    if status == "unbounded":
        return UNBOUNDED
    return value


def lp_point(system: LinSystem, lower=None):
    """A rational point of the relaxation (optionally with var >= bound cuts),
    as a dict of Fractions, or None."""
    relax = _Relaxation(system, lower=lower or {})
    status, _, x = relax.optimize({}, maximize=True)
    if status == "infeasible":
        return None
    return {v: x[v] for v in system.vars}


def lp_max(system: LinSystem, var):
    return lp_opt(system, {var: 1}, maximize=True)


def lp_min(system: LinSystem, var):
    return lp_opt(system, {var: 1}, maximize=False)


def ilp_feasible(system: LinSystem, node_budget: int = ILP_NODES):
    """An integer Solution of the full system (congruences included), or None.

    A system without an integer point even with signs ignored is refuted by
    the Hermite normal form of its equalities (`lattice.solve`); otherwise
    branch-and-bound over the exact LP relaxation. Deterministic: branches on
    the lowest-index fractional variable, floor side first. Exceeding the node
    budget raises ResourceExhausted, never a wrong verdict.
    """
    if (stats := STATS.get()) is not None:
        stats["ilp_calls"] += 1
    base = _rewrite_congruences(system)
    rows = list(base.eqs) + [({v: 1}, k) for v, k in base.fixed.items()]
    matrix = [[coeffs.get(v, 0) for v in base.vars] for coeffs, _ in rows]
    solvable, _ = solve(matrix, len(base.vars), [[rhs] for _, rhs in rows], 1)
    if not solvable[0]:
        return None
    order = {v: i for i, v in enumerate(base.vars)}
    stack = [({}, {})]  # (lower bounds, upper bounds)
    nodes = 0
    while stack:
        lower, upper = stack.pop()
        nodes += 1
        if nodes > node_budget:
            raise ResourceExhausted(f"ilp node budget {node_budget} exceeded")
        relax = _Relaxation(base, lower=lower, upper=upper)
        status, _, x = relax.optimize({}, maximize=True)
        if status == "infeasible":
            continue
        frac = None
        for v in base.vars:
            if x[v].denominator != 1:
                if frac is None or order[v] < order[frac]:
                    frac = v
        if frac is None:
            ints = {v: int(x[v]) for v in base.vars}
            original = {v: ints[v] for v in system.vars}
            return Solution(original, system)
        f = floor(x[frac])
        up_lower = dict(lower)
        up_lower[frac] = max(f + 1, lower.get(frac, f + 1))
        dn_upper = dict(upper)
        dn_upper[frac] = min(f, upper.get(frac, f))
        stack.append((up_lower, upper))   # ceil branch, explored second
        stack.append((lower, dn_upper))   # floor branch first
    return None


def enumerate_var_values(system: LinSystem, var, node_budget: int = ILP_NODES):
    """The set of values `var` takes over integer solutions, or UNBOUNDED.

    Only meaningful when the LP bound is finite; candidates in [lb, ceil(max)]
    are tested one ilp_feasible each, and more than VALUE_RANGE_CAP of them
    raise ResourceExhausted.
    """
    if var not in system.vars:
        raise ArgumentError(f"undeclared variable {var!r}")
    hi = lp_max(system, var)
    if hi is None:
        return set()
    if hi is UNBOUNDED:
        return UNBOUNDED
    lo = lp_min(system, var)
    if lo is UNBOUNDED:
        return UNBOUNDED
    lo, hi = ceil(lo), floor(hi)
    if hi - lo + 1 > VALUE_RANGE_CAP:
        raise ResourceExhausted(f"value range {hi - lo + 1} exceeds cap {VALUE_RANGE_CAP}")
    out = set()
    for a in range(lo, hi + 1):
        if _residue_incompatible(system, var, a):
            continue
        if ilp_feasible(system.with_fixed(var, a), node_budget=node_budget) is not None:
            out.add(a)
    return out


def _residue_incompatible(system, var, a) -> bool:
    for coeffs, r, m in system.congruences:
        if set(coeffs) == {var} and (coeffs[var] * a - r) % m != 0:
            return True
    return False
