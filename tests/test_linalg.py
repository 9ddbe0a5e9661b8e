"""Exact linear algebra against Fraction references kept here: the
fraction-free rref, rank and integer kernel against Gauss-Jordan, the
one integer Bareiss kernel (int_det, bareiss_solve, linalg.det,
linalg.inverse) against Gaussian elimination, and the one congruence
product restrict_gram against its Fraction form."""

from fractions import Fraction
import inspect
from math import gcd
import random

import pytest

from epw import linalg, zlinalg
from epw.linalg import (
    inverse, mat_vec, nullspace, rank, restrict_gram, rref, scaled_ints, solve,
)
from epw.zlinalg import bareiss_solve, int_det


def mat_mul(a, b):
    """Dense Fraction matrix product, the reference arithmetic."""
    bt = linalg.transpose(b)
    return [[sum(x * y for x, y in zip(ra, cb)) for cb in bt] for ra in a]


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


def reference_det(m):
    """Gaussian elimination over Fraction, first nonzero pivot per column."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    sign = 1
    res = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        res *= a[k][k]
        inv = 1 / a[k][k]
        for i in range(k + 1, n):
            if a[i][k] != 0:
                f = a[i][k] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return sign * res


def reference_inverse(m):
    """The right half of the Gauss-Jordan form of [m | I]."""
    n = len(m)
    r, pivots = reference_rref([list(row) + [int(i == j) for j in range(n)]
                                for i, row in enumerate(m)])
    assert pivots == list(range(n))
    return [row[n:] for row in r]


def reference_restrict_gram(g, rows):
    """rows g rows^t over Fraction: one g b per row, then dot products."""
    b = [linalg.fvec(r) for r in rows]
    gb = [mat_vec(g, v) for v in b]
    return [[sum(b[i][t] * gb[j][t] for t in range(len(g))) for j in range(len(b))]
            for i in range(len(b))]


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


def reference_kernel(m, cols):
    """The canonical kernel basis read off reference_rref: one vector per
    free column j, 1 at j and 0 at the other free columns."""
    r, pivots = reference_rref(m)
    basis = []
    for j in range(cols):
        if j not in pivots:
            v = [Fraction(0)] * cols
            v[j] = Fraction(1)
            for i, p in enumerate(pivots):
                v[p] = -r[i][j]
            basis.append(v)
    return basis, len(pivots)


def test_integer_kernel_and_rank_match_the_fraction_route():
    """_gauss_jordan on integer rows and _kernel give the rank and, up to a
    positive factor per vector, the canonical kernel of the Fraction
    reference and of nullspace and rank; each kernel vector is primitive,
    positive at its free column and killed by the matrix.  Zero and full
    rank matrices are among the draws."""
    rng = random.Random(1808)
    cases = [[[Fraction(0)] * 4 for _ in range(3)],
             [[2, 1, 0], [1, 2, 1], [0, 1, 2]],
             [[Fraction(1, 2), 3, 0, Fraction(-5, 7)]]]
    cases += [rank_deficient(rng, rng.randint(1, 7), rng.randint(1, 7)) for _ in range(300)]
    cases += [[[rand_q(rng) for _ in range(n)] for _ in range(n)] for n in range(1, 7)]
    for m in cases:
        cols = len(m[0])
        a, pivots = linalg._gauss_jordan(linalg.scaled_int_rows(m)[1], cols)
        kern = linalg._kernel(a, pivots, cols)
        basis, r = reference_kernel(m, cols)
        assert len(pivots) == r == rank(m)
        assert [[Fraction(x, w[j]) for x in w] for j, w in kern] == basis == nullspace(m)
        for j, w in kern:
            assert all(type(x) is int for x in w) and w[j] > 0 and gcd(*w) == 1
            assert not any(mat_vec(m, w))


def test_integer_kernel_of_no_rows_is_the_unit_basis():
    a, pivots = linalg._gauss_jordan([], 3)
    assert (a, pivots) == ([], [])
    assert linalg._kernel(a, pivots, 3) == [(0, [1, 0, 0]), (1, [0, 1, 0]), (2, [0, 0, 1])]
    assert rank([]) == 0 and nullspace([]) == []


def test_mat_vec_rejects_a_length_mismatch():
    m = [[1, 0, 0], [0, 2, 0], [0, 0, 3]]
    assert mat_vec(m, [1, 1, 1]) == [1, 2, 3]
    with pytest.raises(ValueError, match="length 2"):
        mat_vec(m, [1, 1])
    with pytest.raises(ValueError):
        mat_vec(m, [1, 1, 1, 1])


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


def reference_solve(a, b):
    """One side at a time: the Gauss-Jordan form of [a | b] over Fraction."""
    cols = len(a[0])
    r, pivots = reference_rref([list(row) + [x] for row, x in zip(a, b)])
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for i, p in enumerate(pivots):
        x[p] = r[i][cols]
    return x


def test_solve_takes_all_right_sides_at_once():
    """Consistent, zero and drawn (often inconsistent) sides of singular
    and regular systems, solved together, equal the one-side reference."""
    rng = random.Random(8)
    inconsistent = 0
    for _ in range(300):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        if rng.random() < 0.7:
            a = rank_deficient(rng, rows, cols)
        else:
            a = [[rand_q(rng) for _ in range(cols)] for _ in range(rows)]
        sides = []
        for _ in range(rng.randint(1, 5)):
            kind = rng.randrange(3)
            if kind == 0:
                sides.append(mat_vec(a, [rand_q(rng) for _ in range(cols)]))
            elif kind == 1:
                sides.append([Fraction(0)] * rows)
            else:
                sides.append([rand_q(rng) for _ in range(rows)])
        expected = [reference_solve(a, b) for b in sides]
        inconsistent += expected.count(None)
        assert solve(a, sides) == expected
        assert [solve(a, b) for b in sides] == expected
    assert inconsistent > 50


def test_solve_an_inconsistent_side_between_consistent_ones():
    a = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]          # singular: row 2 = 2 * row 1
    good1, bad, good2, zero = [6, 12, 2], [1, 3, 0], [Fraction(1, 2), 1, 0], [0, 0, 0]
    xs = solve(a, [good1, bad, good2, zero])
    assert xs[1] is None
    assert xs == [solve(a, good1), None, solve(a, good2), solve(a, zero)]
    assert xs[3] == [0, 0, 0]
    for x, b in ((xs[0], good1), (xs[2], good2)):
        assert mat_vec(a, x) == b
    assert solve(a, []) == []
    with pytest.raises(ValueError):
        solve(a, [good1, [1, 2]])


def test_mat_vec_matches_the_fraction_product():
    rng = random.Random(9)
    for _ in range(300):
        rows, cols = rng.randint(1, 6), rng.randint(0, 6)
        a = [[rand_q(rng) if rng.random() < 0.8 else 0 for _ in range(cols)]
             for _ in range(rows)]
        v = [rand_q(rng) for _ in range(cols)]
        out = mat_vec(a, v)
        assert out == [sum((Fraction(x) * y for x, y in zip(row, v)), Fraction(0))
                       for row in a]
        assert all(type(x) is Fraction for x in out)
        with pytest.raises(ValueError, match="length %d" % (cols + 1)):
            mat_vec(a, v + [Fraction(1)])


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


# ---------------------------------------------------------------------
# The integer Bareiss kernel
# ---------------------------------------------------------------------

# Hand-picked systems: 0x0 and 1x1, zero leading pivots that force one
# row swap (odd, det < 0) or two (even), a singular leading block in a
# nonsingular matrix, singular matrices, and zero right-hand sides.
EDGE_SYSTEMS = [
    ([], []),
    ([[5]], [[10, -3]]),
    ([[-3]], [[6]]),
    ([[0]], [[1]]),
    ([[0, 1], [1, 0]], [[1], [2]]),                        # one swap
    ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], [[1, 2], [3, 4], [5, 6]]),  # one swap
    ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], [[1], [2], [3]]),  # two swaps
    ([[0, 2, 0], [0, 0, -3], [5, 0, 0]], [[7], [-1], [4]]),
    ([[1, 2, 0], [2, 4, 1], [0, 1, 1]], [[1], [1], [1]]),  # pivot vanishes mid-run
    ([[1, 2], [2, 4]], [[1], [2]]),                        # singular
    ([[0, 0], [0, 0]], [[0], [0]]),
    ([[1, 2, 3], [4, 5, 6], [7, 8, 9]], [[1], [0], [0]]),
    ([[2, 1], [1, 3]], [[0, 0], [0, 0]]),                  # zero right sides
    ([[0, 4], [-2, 1]], [[0], [0]]),
    ([[3, 1], [1, 2]], [[], []]),                          # no right sides
]


def random_system(rng):
    """A seeded integer system (m, rhs) of side 0-7 with 0-3 right sides:
    sparse entries, row-permuted triangular matrices (zero leading pivots,
    swaps of either parity) or rank-deficient products."""
    n = rng.randint(0, 7)
    kind = rng.randrange(3)
    if kind == 0:
        m = [[rng.randint(-9, 9) if rng.random() < 0.5 else 0 for _ in range(n)]
             for _ in range(n)]
    elif kind == 1:
        m = [[0] * i + [rng.choice([-3, -2, -1, 1, 2, 3])]
             + [rng.randint(-5, 5) for _ in range(n - i - 1)] for i in range(n)]
        rng.shuffle(m)
    else:
        r = rng.randint(0, max(0, n - 1))
        a = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(n)]
        b = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(r)]
        m = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] if r else [0] * n
             for row in a]
    k = rng.randint(0, 3)
    if rng.random() < 0.2:
        rhs = [[0] * k for _ in range(n)]
    else:
        rhs = [[rng.randint(-20, 20) for _ in range(k)] for _ in range(n)]
    return m, rhs


def random_systems(seed=606, count=1200):
    rng = random.Random(seed)
    return EDGE_SYSTEMS + [random_system(rng) for _ in range(count)]


def solve_failures(solve_fn, systems):
    """The systems on which solve_fn breaks the bareiss_solve contract:
    det is det(m), and Y is None for singular m, else an integer matrix
    with m Y = det * rhs."""
    bad = []
    for m, rhs in systems:
        det, y = solve_fn(m, rhs)
        ref = reference_det(m)
        if det != ref:
            bad.append((m, rhs, "det"))
        elif ref == 0:
            if y is not None:
                bad.append((m, rhs, "singular"))
        elif (len(y) != len(m)
              or any(type(x) is not int for row in y for x in row)
              or any(sum(m[i][t] * y[t][c] for t in range(len(m))) != det * rhs[i][c]
                     for i in range(len(m)) for c in range(len(rhs[i])))):
            bad.append((m, rhs, "Y"))
    return bad


def test_int_det_matches_fraction_elimination():
    systems = random_systems()
    negative = 0
    for m, _ in systems:
        d = int_det(m)
        assert type(d) is int and d == reference_det(m)
        negative += d < 0
    assert negative > 100
    assert int_det([]) == 1


def test_kernel_swaps_rows_of_both_parities():
    # the permutation sign is what turns a[n-1][n-1] into the determinant
    signs = set()
    for m, _ in random_systems():
        if m and reference_det(m) != 0:
            a = [row[:] for row in m]
            sign = zlinalg._eliminate(a, len(a))
            assert sign * a[-1][-1] == reference_det(m)
            signs.add(sign)
    assert signs == {1, -1}
    a = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    assert zlinalg._eliminate(a, 3) == 1 and a[2][2] == 1   # two swaps
    a = [[1, 2, 0], [2, 4, 0], [0, 0, 1]]
    assert zlinalg._eliminate(a, 3) == 0                     # no pivot in column 1


def test_eliminate_leaves_the_bordered_minors_below_its_pivot_rows():
    """Sylvester's identity: _eliminate(a, n) on n + k rows pivots in the
    first n rows only, eliminates every row below, and leaves at (n + i,
    n + j) the sign times det [[N, c_j], [r_i, a_ij]], the leading block N
    bordered by row n + i and column n + j; it returns 0 exactly when N is
    singular."""
    rng = random.Random(2101)
    signs, singular = set(), 0
    for _ in range(400):
        n, k = rng.randint(0, 5), rng.randint(1, 3)
        m = [[rng.randint(-3, 3) if rng.random() < 0.6 else 0 for _ in range(n + k)]
             for _ in range(n + k)]
        if n > 1 and rng.random() < 0.2:
            m[rng.randrange(n)] = [2 * x for x in m[rng.randrange(n)]]
        a = [row[:] for row in m]
        sign = zlinalg._eliminate(a, n)
        if int_det([row[:n] for row in m[:n]]) == 0:
            assert sign == 0
            singular += 1
            continue
        signs.add(sign)
        for i in range(n, n + k):
            for j in range(n, n + k):
                bordered = [row[:n] + [row[j]] for row in m[:n]] + [m[i][:n] + [m[i][j]]]
                assert a[i][j] == sign * int_det(bordered)
    assert signs == {1, -1} and singular > 20


def test_eliminate_resumed_from_prev_is_one_full_elimination():
    """p steps of _eliminate, then the trailing block resumed with prev =
    the last prefix pivot, give the pivots and the sign times last pivot
    of one full elimination; the prefix returns 0 exactly when the leading
    p x p block is singular, the case the resume never sees."""
    rng = random.Random(2201)
    seen = {"prefix swap": 0, "trailing swap": 0, "singular prefix": 0, "singular": 0}
    for _ in range(600):
        n = rng.randint(1, 7)
        p = rng.randint(0, n)
        m = [[rng.randint(-3, 3) if rng.random() < 0.5 else 0 for _ in range(n)]
             for _ in range(n)]
        if n > 1 and rng.random() < 0.2:
            m[rng.randrange(n)] = [2 * x for x in m[rng.randrange(n)]]
        full = [row[:] for row in m]
        sign = zlinalg._eliminate(full, n)
        assert sign * full[-1][-1] == reference_det(m)
        a = [row[:] for row in m]
        first = zlinalg._eliminate(a, p)
        if int_det([row[:p] for row in m[:p]]) == 0:
            assert first == 0
            seen["singular prefix"] += 1
            continue
        pivot = a[p - 1][p - 1] if p else 1
        trail = [row[p:] for row in a[p:]]
        second = zlinalg._eliminate(trail, n - p, pivot)
        assert first * second * (trail[-1][-1] if trail else pivot) == sign * full[-1][-1]
        if second:
            assert [a[i][i] for i in range(p)] + [trail[i][i] for i in range(n - p)] \
                == [full[i][i] for i in range(n)]
        seen["prefix swap"] += first == -1
        seen["trailing swap"] += second == -1
        seen["singular"] += second == 0
    assert min(seen.values()) > 20, seen


def test_bareiss_solve_contract():
    systems = random_systems()
    assert solve_failures(bareiss_solve, systems) == []
    assert sum(1 for m, _ in systems if m and reference_det(m) == 0) > 100
    assert bareiss_solve([], []) == (1, [])
    assert bareiss_solve([[1, 2], [2, 4]], [[1], [2]]) == (0, None)
    assert bareiss_solve([[0, 1], [1, 0]], [[1], [2]]) == (-1, [[-2], [-1]])


def test_dropped_sign_correction_on_y_is_caught():
    src = inspect.getsource(zlinalg)
    mutant = src.replace("return det, z if sign == 1 else [[-x for x in r] for r in z]",
                         "return det, z")
    assert mutant != src
    ns = {}
    exec(compile(mutant, "zlinalg_mutant", "exec"), ns)
    bad = solve_failures(ns["bareiss_solve"], random_systems())
    assert bad and all(why == "Y" for _, _, why in bad)


def random_rational(rng):
    """int-like and rational entries, with zero leading pivots and
    singular matrices among them."""
    n = rng.randint(0, 6)
    m = [[rand_q(rng) if rng.random() < 0.6 else Fraction(0) for _ in range(n)]
         for _ in range(n)]
    if n > 1 and rng.random() < 0.2:
        m[rng.randrange(n)] = [2 * x for x in m[rng.randrange(n)]]
    if rng.random() < 0.2:
        m = [[int(x) for x in row] for row in m]
    return m


def test_det_matches_fraction_elimination():
    rng = random.Random(607)
    for _ in range(1000):
        m = random_rational(rng)
        d = linalg.det(m)
        assert type(d) is Fraction and d == reference_det(m)
    assert linalg.det([]) == 1
    assert linalg.det([[Fraction(-1, 3)]]) == Fraction(-1, 3)
    assert linalg.det([[0, Fraction(1, 2)], [Fraction(3, 5), 7]]) == Fraction(-3, 10)


def test_inverse_matches_fraction_gauss_jordan():
    rng = random.Random(608)
    inverted = 0
    for _ in range(1000):
        m = random_rational(rng)
        if reference_det(m) == 0:
            with pytest.raises(ValueError):
                inverse(m)
            continue
        inv = inverse(m)
        assert inv == reference_inverse(m)
        assert all(type(x) is Fraction for row in inv for x in row)
        inverted += 1
    assert inverted > 500
    assert inverse([]) == []
    assert inverse([[Fraction(-2, 7)]]) == [[Fraction(-7, 2)]]


def test_restrict_gram_matches_fraction_reference():
    rng = random.Random(609)
    seen = set()
    for _ in range(400):
        n = rng.randint(1, 8)
        g = [[rand_q(rng) if rng.random() < 0.7 else Fraction(0) for _ in range(n)]
             for _ in range(n)]
        if rng.random() < 0.5:
            g = [[g[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        rows = [[rand_q(rng) if rng.random() < 0.6 else 0 for _ in range(n)]
                for _ in range(rng.randint(1, n + 1))]
        if rng.random() < 0.2:
            rows[rng.randrange(len(rows))] = [0] * n
        got = restrict_gram(g, rows)
        assert got == reference_restrict_gram(g, rows)
        assert all(type(x) is Fraction for row in got for x in row)
        seen.add("single row" if len(rows) == 1 else "k < n" if len(rows) < n else "k >= n")
        if any(not any(r) for r in rows):
            seen.add("zero row")
        if any(Fraction(x).denominator > 1 for r in rows for x in r):
            seen.add("denominators")
    assert seen == {"single row", "k < n", "k >= n", "zero row", "denominators"}
    assert restrict_gram([[Fraction(1, 2)]], []) == []
    assert restrict_gram([[1, 2], [2, 0]], [["1/2", 1]]) == [[Fraction(9, 4)]]


@pytest.mark.parametrize("call", [
    lambda: linalg.det([[0.5, 0], [0, 2]]),
    lambda: rank([[1, 0], [0, 2.0]]),
    lambda: restrict_gram([[1.5]], [[1]]),
    lambda: linalg.scaled_int_rows([[Fraction(1, 3), 0.25]]),
])
def test_scaled_rows_refuse_floats(call):
    """as_integer_ratio reads a float exactly (det([[0.5, 0], [0, 2]]) was
    1), so the one scaling helper refuses floats as frac does."""
    with pytest.raises(TypeError, match="floats are not allowed"):
        call()


def test_restrict_gram_rejects_a_row_of_the_wrong_length():
    g = [[1, 0, 0], [0, 2, 0], [0, 0, 3]]
    for row in ([1, 1], [1, 1, 1, 1]):
        with pytest.raises(ValueError, match="row length"):
            restrict_gram(g, [[1, 0, 0], row])
        with pytest.raises(ValueError, match="row length"):
            zlinalg.int_gram(g, [row])
