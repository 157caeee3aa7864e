"""The rational simplex that `vasslab.solver` used before its integer tableau,
kept verbatim as a differential oracle for the tests.

Rows are lists of Fractions; the reduced costs are recomputed in full on
every pivot. `_solve_standard` has the signature and the results of
`vasslab.solver._solve_standard`, so a test can monkeypatch it in.
"""

from fractions import Fraction

from vasslab.solver import STATS



def _pivot(rows, basis, r, c):
    piv = rows[r][c]
    rows[r] = [x / piv for x in rows[r]]
    for i in range(len(rows)):
        if i != r and rows[i][c] != 0:
            f = rows[i][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
    basis[r] = c


def _simplex_core(rows, basis, cost, ncols):
    """Maximize over a tableau already canonical in `basis`. Returns status."""
    while True:
        cb = [cost[basis[i]] for i in range(len(rows))]
        entering = -1
        for j in range(ncols):
            red = cost[j] - sum(cb[i] * rows[i][j] for i in range(len(rows)))
            if red > 0:
                entering = j
                break  # Bland: smallest index
        if entering < 0:
            return "optimal"
        leaving, best = -1, None
        for i in range(len(rows)):
            if rows[i][entering] > 0:
                ratio = rows[i][-1] / rows[i][entering]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leaving]
                ):
                    leaving, best = i, ratio
        if leaving < 0:
            return "unbounded"
        _pivot(rows, basis, leaving, entering)


def _solve_standard(A, b, c):
    """max c·x s.t. Ax = b, x >= 0; A rows of Fractions.

    Returns (status, value, x) with status optimal | unbounded | infeasible.
    """
    STATS["lp_calls"] += 1
    m, n = len(A), len(c)
    rows = []
    for i in range(m):
        row = list(A[i]) + [b[i]]
        if row[-1] < 0:
            row = [-x for x in row]
        rows.append(row)
    # phase 1: artificials n..n+m-1
    for i in range(m):
        art = [Fraction(0)] * m
        art[i] = Fraction(1)
        rows[i] = rows[i][:-1] + art + [rows[i][-1]]
    basis = [n + i for i in range(m)]
    cost1 = [Fraction(0)] * n + [Fraction(-1)] * m
    _simplex_core(rows, basis, cost1, n + m)
    val1 = sum(cost1[basis[i]] * rows[i][-1] for i in range(m))
    if val1 < 0:
        return "infeasible", None, None
    # drive artificials out of the basis; drop redundant rows
    keep = []
    for i in range(len(rows)):
        if basis[i] >= n:
            piv = next((j for j in range(n) if rows[i][j] != 0), None)
            if piv is None:
                continue  # redundant row
            _pivot(rows, basis, i, piv)
        keep.append(i)
    rows = [rows[i][:n] + [rows[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]
    cost2 = list(c)
    status = _simplex_core(rows, basis, cost2, n)
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        x[bi] = rows[i][-1]
    if status == "unbounded":
        return "unbounded", None, x
    value = sum(c[j] * x[j] for j in range(n))
    return "optimal", value, x
