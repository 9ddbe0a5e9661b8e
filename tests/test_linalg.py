"""Exact linear algebra: the fraction-free rref against Fraction Gauss-Jordan."""

from fractions import Fraction
import random

import pytest

from epw import linalg
from epw.linalg import inverse, mat_mul, mat_vec, nullspace, rank, rref, scaled_ints, solve


def reference_rref(m):
    """Gauss-Jordan over Fraction: normalize each pivot row, then eliminate."""
    r = [[Fraction(x) for x in row] for row in m]
    rows = len(r)
    cols = len(r[0]) if rows else 0
    pivots = []
    lead = 0
    for col in range(cols):
        piv = next((i for i in range(lead, rows) if r[i][col] != 0), None)
        if piv is None:
            continue
        r[lead], r[piv] = r[piv], r[lead]
        inv = 1 / r[lead][col]
        r[lead] = [x * inv for x in r[lead]]
        for i in range(rows):
            if i != lead and r[i][col] != 0:
                f = r[i][col]
                r[i] = [x - f * y for x, y in zip(r[i], r[lead])]
        pivots.append(col)
        lead += 1
        if lead == rows:
            break
    return r, pivots


def rand_q(rng, span=9, den=12):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def rank_deficient(rng, rows, cols):
    """A rows x cols rational matrix of rank below min(rows, cols)."""
    k = rng.randint(0, max(0, min(rows, cols) - 1))
    a = [[rand_q(rng) for _ in range(k)] for _ in range(rows)]
    b = [[rand_q(rng) for _ in range(cols)] for _ in range(k)]
    if k == 0:
        return [[Fraction(0)] * cols for _ in range(rows)]
    m = mat_mul(a, b)
    if rng.random() < 0.3:
        m[rng.randrange(rows)] = [Fraction(0)] * cols
    return m


def test_scaled_ints():
    assert scaled_ints([]) == (1, [])
    assert scaled_ints([Fraction(1, 2), Fraction(-2, 3), 4]) == (6, [3, -4, 24])
    assert scaled_ints((Fraction(5), 0)) == (1, [5, 0])


def test_rref_matches_fraction_gauss_jordan_on_rank_deficient_matrices():
    rng = random.Random(2024)
    for _ in range(2000):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        m = rank_deficient(rng, rows, cols)
        r, pivots = rref(m)
        assert (r, pivots) == reference_rref(m)
        assert len(pivots) < min(rows, cols) or min(rows, cols) == 0
        assert all(type(x) is Fraction for row in r for x in row)


@pytest.mark.parametrize("m", [
    [],
    [[]],
    [[0, 0, 0], [0, 0, 0]],
    [[0, Fraction(3, 4), 0, 2]],
    [[1, 2, 3, 4, 5, 6, 7, 8], [2, 4, 6, 8, 10, 12, 14, 17]],
    [[1], [Fraction(2, 3)], [0], [-5]],
    [[Fraction(1, 10**6), 1], [1, Fraction(10**6, 7)], [2, 3]],
])
def test_rref_edge_shapes(m):
    r, pivots = rref(m)
    assert (r, pivots) == reference_rref(m)
    assert all(type(x) is Fraction for row in r for x in row)


def test_rref_of_integer_input_is_fraction_valued():
    r, pivots = rref([[2, 4], [1, 2]])
    assert r == [[1, 2], [0, 0]] and pivots == [0]
    assert all(type(x) is Fraction for row in r for x in row)


def test_nullspace_is_a_canonical_kernel_basis():
    rng = random.Random(5)
    for _ in range(200):
        m = rank_deficient(rng, rng.randint(1, 5), rng.randint(2, 6))
        basis = nullspace(m)
        assert len(basis) == len(m[0]) - rank(m)
        for v in basis:
            assert all(x == 0 for x in mat_vec(m, v))
    assert nullspace([[1, 2, 3]]) == [[-2, 1, 0], [-3, 0, 1]]


def test_solve_consistent_and_inconsistent():
    rng = random.Random(6)
    for _ in range(200):
        a = rank_deficient(rng, rng.randint(1, 5), rng.randint(1, 5))
        x0 = [rand_q(rng) for _ in a[0]]
        x = solve(a, mat_vec(a, x0))
        assert x is not None and mat_vec(a, x) == mat_vec(a, x0)
    # x + y = 1 and 2x + 2y = 3 have no common solution
    assert solve([[1, 1], [2, 2]], [1, 3]) is None
    assert solve([[0, 0]], [Fraction(1, 2)]) is None


def test_inverse_and_singular():
    rng = random.Random(7)
    for n in range(1, 6):
        for _ in range(20):
            m = [[rand_q(rng) for _ in range(n)] for _ in range(n)]
            if linalg.det(m) == 0:
                continue
            assert mat_mul(m, inverse(m)) == linalg.identity(n)
    with pytest.raises(ValueError):
        inverse([[1, 2], [Fraction(1, 2), 1]])
    with pytest.raises(ValueError):
        inverse([[0, 0], [0, 0]])
