"""Integer lattices: the column Hermite normal form A·V = L of an integer
matrix together with its unimodular transform V (Schrijver, *Theory of Linear
and Integer Programming*, ch. 4–5; Cohen, *A Course in Computational
Algebraic Number Theory*, §2.4), and the integer solutions of A·x = y that
forward substitution along L's pivots finds. Integers only: every step is a
unimodular column operation, and a division only ever takes a quotient."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Hermite:
    """A·V = L for an m×n integer A, kept as n stacked columns, column j of
    L on top of column j of V. Column j < rank has its positive pivot at row
    pivots[j], zeros above it, and every entry of its pivot row to its left
    lies in [0, pivot); the columns from the rank on are zero in L, so their
    V parts are a basis of A's integer kernel."""

    m: int
    columns: tuple
    pivots: tuple


def hermite(rows, n: int) -> Hermite:
    """The column Hermite normal form of the integer matrix `rows` with n
    columns."""
    cols, pivots, _, _ = _reduce(rows, n, [], 0)
    return Hermite(len(rows), tuple(map(tuple, cols)), tuple(pivots))


def solve(rows, n: int, ys, count: int):
    """The integer solutions of A·X = Y, column by column, for the matrix A
    given by its rows with n columns and the matrix Y given by its rows `ys`
    with `count` columns: (solvable, xs), where solvable[t] tells whether
    column t of Y is A·x for an integer x, and then column t of the matrix
    given by its rows `xs` is one such x."""
    _, _, solvable, rest = _reduce(rows, n, ys, count)
    return solvable, rest[len(rows):]


def _reduce(rows, n, ys, count):
    """(columns, pivots, solvable, rest): A stacked on the n×n identity,
    column-reduced to L stacked on V one row of A at a time, with forward
    substitution of the right-hand sides Y alongside. Their rest starts as Y
    stacked on 0; once row i has its pivot column (l; v), μ = ⌊rest_i / l_i⌋
    moves the rest from (r, x) to (r − μ·l, x + μ·v), which leaves the
    remainder in row i. Every step keeps A·V = L and A·x = Y − r, and later
    steps leave the rows up to i alone, so a right-hand side is A·x for an
    integer x iff its r ends 0. Stops early once no right-hand side is left
    solvable."""
    m = len(rows)
    cols = [list(col) + [0] * n for col in zip(*rows)] if m else [[0] * n for _ in range(n)]
    for j in range(n):
        cols[j][m + j] = 1
    rest = [list(row) for row in ys] + [[0] * count for _ in range(n)]
    solvable = [True] * count
    pivots = []
    for i in range(m):
        c = len(pivots)
        live = [j for j in range(c, n) if cols[j][i]]
        if live:
            # the first live column takes the gcd of row i, by 2×2 unimodular
            # transforms from Bezout's identity; the others are left with 0
            cols[c], cols[live[0]] = cols[live[0]], cols[c]
            piv = cols[c]
            for j in live[1:]:
                col = cols[j]
                a, b = piv[i], col[i]
                if b % a:
                    s, t = bezout(a, b)
                    g = s * a + t * b
                    piv, cols[j] = ([s * x + t * y for x, y in zip(piv, col)],
                                    [a // g * y - b // g * x for x, y in zip(piv, col)])
                else:
                    q = b // a
                    cols[j] = [y - q * x for x, y in zip(piv, col)]
            if piv[i] < 0:
                piv = [-x for x in piv]
            cols[c] = piv
            for j in range(c):  # the pivot row left of the pivot into [0, pivot)
                if q := cols[j][i] // piv[i]:
                    cols[j] = [y - q * x for x, y in zip(piv, cols[j])]
            pivots.append(i)
        if count:
            if live:
                qs = [a // piv[i] for a in rest[i]]
                for k, x in enumerate(piv):
                    if x:
                        x = -x if k < m else x
                        rest[k] = [a + q * x for a, q in zip(rest[k], qs)]
            solvable = [ok and not a for ok, a in zip(solvable, rest[i])]
            if not any(solvable):
                break
    return cols, pivots, solvable, rest


def bezout(a: int, b: int):
    """(s, t) with s·a + t·b = ±gcd(a, b), by the extended Euclidean algorithm."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_s, s = s, old_s - qt * s
        old_t, t = t, old_t - qt * t
    return old_s, old_t
