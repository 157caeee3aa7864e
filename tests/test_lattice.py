"""The column Hermite normal form of `vasslab.lattice` on random small integer
matrices: A·V = L, V unimodular, L in the shape `Hermite` names and the same
for every basis of the lattice A's columns span. `solve` is compared with a
windowed search in tests/test_solver.py, the rank in tests/test_structure.py
and R(Λ, k)'s final states in tests/test_semilinear.py."""

from math import gcd

from vasslab.lattice import bezout, hermite, solve


def random_matrix(rng, m, n):
    return [[rng.choice((0, 0, 1, -1, 2, -2, 3, -5)) for _ in range(n)] for _ in range(m)]


def split(h, n):
    """(L, V) as lists of rows."""
    return ([[col[i] for col in h.columns] for i in range(h.m)],
            [[col[h.m + i] for col in h.columns] for i in range(n)])


def times(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def test_shape_and_transform(rng):
    ranks = set()
    for _ in range(400):
        m, n = rng.randint(0, 4), rng.randint(1, 4)
        a = random_matrix(rng, m, n)
        h = hermite(a, n)
        low, v = split(h, n)
        assert times(a, v) == low
        # V is unimodular: its own normal form is the identity
        assert split(hermite(v, n), n)[0] == identity(n)
        r = len(h.pivots)
        ranks.add(r)
        assert list(h.pivots) == sorted(set(h.pivots))
        for j, p in enumerate(h.pivots):
            assert low[p][j] > 0 and all(low[i][j] == 0 for i in range(p))
            assert all(0 <= low[p][c] < low[p][j] for c in range(j))
        # zero columns of L: V's columns past the rank solve A·x = 0
        assert all(low[i][j] == 0 for i in range(m) for j in range(r, n))
    assert ranks == {0, 1, 2, 3, 4}


def test_normal_form_depends_on_the_lattice_only(rng):
    # A and A·U span one lattice for unimodular U, and the form is unique
    for _ in range(200):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = random_matrix(rng, m, n)
        u = identity(n)
        for _ in range(6):
            i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
            if i != j:
                q = rng.randint(-2, 2)
                u = [[x - q * row[i] if c == j else x for c, x in enumerate(row)]
                     for row in u]
        assert split(hermite(a, n), n)[0] == split(hermite(times(a, u), n), n)[0]


def test_solve_is_exact_on_a_planted_point(rng):
    for _ in range(300):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = random_matrix(rng, m, n)
        x0 = [rng.randint(-4, 4) for _ in range(n)]
        y = [sum(c * x for c, x in zip(row, x0)) for row in a]
        h = hermite(a, n)
        y_off = list(y)
        if h.pivots and h.columns[0][h.pivots[0]] > 1:
            # one right-hand side entry moved off the lattice: refuted
            y_off[h.pivots[0]] += 1
        solvable, xs = solve(a, n, [[b, c] for b, c in zip(y, y_off)], 2)
        assert solvable[0] and solvable[1] == (y_off == y)
        x = [row[0] for row in xs]
        assert [sum(c * t for c, t in zip(row, x)) for row in a] == y


def test_bezout(rng):
    for _ in range(300):
        a, b = rng.randint(-30, 30), rng.randint(-30, 30)
        s, t = bezout(a, b)
        assert abs(s * a + t * b) == gcd(a, b)
