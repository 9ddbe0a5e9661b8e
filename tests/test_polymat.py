"""Determinant strategies agree with each other and with cofactor expansion."""

from fractions import Fraction
from math import comb
import random

import pytest

from epw.poly import MultiPoly, poly_from_text
from epw.polymat import (
    Pencil, PolyMatrix, det_poly_matrix, det_bareiss, det_cofactor, det_interpolate,
    adjugate_poly_matrix, interpolate_poly_map,
)

XY = ("x", "y")


def const_mat(rows, variables=XY):
    return PolyMatrix.from_scalar_matrix(rows, variables)


def rand_entry(rng, variables, deg=1):
    terms = {(0,) * len(variables): Fraction(rng.randint(-3, 3))}
    for i in range(len(variables)):
        e = [0] * len(variables)
        e[i] = 1
        terms[tuple(e)] = Fraction(rng.randint(-3, 3))
    return MultiPoly(variables, terms)


def rand_matrix(rng, n, variables=XY):
    return PolyMatrix([[rand_entry(rng, variables) for _ in range(n)] for _ in range(n)])


def test_identity_determinant():
    m = const_mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert det_poly_matrix(m) == MultiPoly.const(XY, 1)


def test_hand_expansion_2x2():
    x = MultiPoly.var(XY, "x")
    y = MultiPoly.var(XY, "y")
    one = MultiPoly.const(XY, 1)
    m = PolyMatrix([[x, one], [one, y]])
    assert det_poly_matrix(m) == x * y - one


def test_random_4x4_against_cofactor_oracle():
    rng = random.Random(42)
    for _ in range(8):
        m = rand_matrix(rng, 4)
        expected = det_cofactor(m)
        assert det_bareiss(m) == expected
        assert det_interpolate(m) == expected
        assert det_poly_matrix(m) == expected


def test_bareiss_vs_cofactor_small_sweep():
    rng = random.Random(1)
    for n in (2, 3, 5):
        for _ in range(100 if n <= 3 else 20):
            m = rand_matrix(rng, n)
            assert det_bareiss(m) == det_cofactor(m)


def test_interpolation_matches_bareiss_on_shared_10x10():
    # the strategy-agreement instance required of the two routes
    rng = random.Random(99)
    m = rand_matrix(rng, 10, XY)
    a = det_bareiss(m)
    b = det_interpolate(m)
    assert a == b
    assert a.degree() <= 10


def test_zero_row_determinant():
    z = MultiPoly.zero(XY)
    x = MultiPoly.var(XY, "x")
    m = PolyMatrix([[z, z], [x, x]])
    assert det_poly_matrix(m).is_zero()


def test_non_square_rejected():
    x = MultiPoly.var(XY, "x")
    m = PolyMatrix([[x, x]])
    with pytest.raises(ValueError):
        det_poly_matrix(m)
    with pytest.raises(ValueError):
        adjugate_poly_matrix(m)


def test_adjugate_1x1():
    m = const_mat([[7]])
    adj = adjugate_poly_matrix(m)
    assert adj.entries[0][0] == MultiPoly.const(XY, 1)


def test_adjugate_2x2_textbook():
    a, b, c, d = (poly_from_text(s, XY) for s in ("x", "1", "2", "y"))
    m = PolyMatrix([[a, b], [c, d]])
    adj = adjugate_poly_matrix(m)
    assert adj.entries == [[d, -b], [-c, a]]


def test_adjugate_product_identity():
    rng = random.Random(17)
    for n in (2, 3):
        for _ in range(6):
            m = rand_matrix(rng, n)
            adj = adjugate_poly_matrix(m)
            prod = m.mul(adj)
            d = det_poly_matrix(m)
            for i in range(n):
                for j in range(n):
                    assert prod.entries[i][j] == (d if i == j else MultiPoly.zero(XY))


# -- interpolation core ----------------------------------------------------------


def rand_poly(rng, variables, degree):
    terms = {}
    for _ in range(10):
        e = [0] * len(variables)
        for _ in range(rng.randint(0, degree)):
            e[rng.randrange(len(variables))] += 1
        terms[tuple(e)] = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
    return MultiPoly(variables, terms)


def counting_oracle(polys):
    calls = []

    def oracle(pt):
        calls.append(pt)
        return [p.evaluate(pt) for p in polys]

    return oracle, calls


@pytest.mark.parametrize("nvars", [1, 2, 3, 4, 5])
def test_interpolation_reconstructs_random_maps(nvars):
    rng = random.Random(100 + nvars)
    variables = tuple("x%d" % i for i in range(nvars))
    for degree in (1, 3, 6):
        polys = [rand_poly(rng, variables, degree) for _ in range(3)]
        oracle, calls = counting_oracle(polys)
        assert interpolate_poly_map(oracle, variables, degree, 3) == polys
        # one oracle call per grid point, and nothing else
        assert len(calls) == len(set(calls)) == comb(degree + nvars, nvars)


def test_interpolation_above_the_true_degree_is_exact():
    rng = random.Random(7)
    polys = [rand_poly(rng, XY, 2), MultiPoly.zero(XY)]
    oracle, calls = counting_oracle(polys)
    assert interpolate_poly_map(oracle, XY, 5, 2) == polys
    assert len(calls) == comb(7, 2)


def test_interpolation_degree_zero_and_no_variables():
    oracle, calls = counting_oracle([MultiPoly.const(XY, Fraction(3, 4))])
    assert interpolate_poly_map(oracle, XY, 0, 1) == [MultiPoly.const(XY, Fraction(3, 4))]
    assert calls == [(0, 0)]
    out = interpolate_poly_map(lambda pt: (Fraction(-2, 3), 5), (), 4, 2)
    assert out == [MultiPoly.const((), Fraction(-2, 3)), MultiPoly.const((), 5)]


def test_interpolation_rejects_bad_input():
    with pytest.raises(ValueError):
        interpolate_poly_map(lambda pt: (1,), XY, -1, 1)
    with pytest.raises(ValueError):
        interpolate_poly_map(lambda pt: (1, 2), XY, 2, 1)


# -- rational matrices, affine and not --------------------------------------------

XYZ = ("x", "y", "z")


def rand_rational_entry(rng, variables, deg, used):
    """A polynomial of degree <= deg in the variables at indices `used`, with
    coefficients of denominators up to 10^6; about one entry in five is 0."""
    if rng.random() < 0.2:
        return MultiPoly.zero(variables)
    terms = {}
    for _ in range(rng.randint(1, 4)):
        e = [0] * len(variables)
        for _ in range(rng.randint(0, deg)):
            e[rng.choice(used)] += 1
        terms[tuple(e)] = Fraction(rng.randint(-50, 50), rng.randint(1, 10 ** 6))
    return MultiPoly(variables, terms)


@pytest.mark.parametrize("n,deg,used", [
    (3, 1, (0, 1, 2)),
    (3, 2, (0, 2)),      # y never occurs
    (4, 1, (1,)),        # one variable
    (3, 3, (0,)),
    (4, 2, (0, 1)),
    (5, 1, (0, 1, 2)),
])
def test_integer_interpolation_matches_cofactor_on_rational_matrices(n, deg, used):
    rng = random.Random(1000 * n + 10 * deg + len(used))
    for trial in range(6):
        entries = [[rand_rational_entry(rng, XYZ, deg, used) for _ in range(n)]
                   for _ in range(n)]
        if trial == 5:
            entries[rng.randrange(n)] = [MultiPoly.zero(XYZ)] * n
        m = PolyMatrix(entries)
        expected = det_cofactor(m)
        # only an affine matrix is a pencil; every matrix goes through Bareiss
        if deg == 1:
            assert det_interpolate(m) == expected
        assert det_bareiss(m) == expected
        assert det_poly_matrix(m) == expected
        assert all(e[i] == 0 for e in expected.terms for i in range(3) if i not in used)


def test_integer_interpolation_constant_and_scaled_matrices():
    half = Fraction(1, 2)
    m = const_mat([[half, 0, Fraction(1, 3)], [0, Fraction(2, 7), 0], [1, 0, 5]])
    assert det_interpolate(m) == det_cofactor(m) == MultiPoly.const(XY, Fraction(13, 21))
    x = MultiPoly.var(XY, "x")
    # L = 6, side 3: the determinant x^3/216 is off by a factor 6 if
    # the result were divided by L^2 instead of L^3
    d = det_interpolate(PolyMatrix([[x * Fraction(1, 6), MultiPoly.zero(XY), MultiPoly.zero(XY)],
                                    [MultiPoly.zero(XY), x * Fraction(1, 6), MultiPoly.zero(XY)],
                                    [MultiPoly.zero(XY), MultiPoly.zero(XY), x * Fraction(1, 6)]]))
    assert d == x ** 3 * Fraction(1, 216)
    # an explicit degree 0 keeps only the constant terms
    assert det_interpolate(PolyMatrix([[x + half]]), degree=0) == MultiPoly.const(XY, half)


def test_det_interpolate_rejects_entries_above_degree_one():
    x = MultiPoly.var(XY, "x")
    one = MultiPoly.const(XY, 1)
    with pytest.raises(ValueError):
        det_interpolate(PolyMatrix([[x * x, one], [one, x]]))
    with pytest.raises(ValueError):
        det_interpolate(PolyMatrix([[x, x]]))


def test_det_poly_matrix_reaches_bareiss_at_every_side(monkeypatch):
    from epw import polymat

    calls = []

    def spy(name):
        real = getattr(polymat, name)

        def wrapped(m):
            calls.append(name)
            return real(m)

        return wrapped

    for name in ("det_bareiss", "det_interpolate"):
        monkeypatch.setattr(polymat, name, spy(name))
    rng = random.Random(3)
    x = MultiPoly.var(XY, "x")
    det_poly_matrix(const_mat([[5]]))
    det_poly_matrix(rand_matrix(rng, 2))
    det_poly_matrix(const_mat([[1, 2, 3], [4, 5, 6], [7, 8, 10]]))
    det_poly_matrix(PolyMatrix([[x, x, x], [x, x * x, x], [x, x, x + 1]]))
    det_poly_matrix(rand_matrix(rng, 6))
    assert calls == ["det_bareiss"] * 5


# -- affine pencils ----------------------------------------------------------

PENCIL_VARS = ("s1", "s2", "s3", "s4", "s5")


def rand_pencil(rng, n, nmoves, zero_row=None):
    """A seeded rational pencil of side n with nmoves moves; about two
    entries in five are 0, and row zero_row (if given) is 0 everywhere."""

    def rat():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < 0.6 else 0

    mats = [[[rat() for _ in range(n)] for _ in range(n)] for _ in range(1 + nmoves)]
    if zero_row is not None:
        for m in mats:
            m[zero_row] = [0] * n
    return Pencil(mats[0], mats[1:])


# Bareiss over Q[t] grows fast with side and parameter count; n + 2 k <= 13
# keeps every side 0-8 and every count 0-5 at about a second in all.
PENCIL_SHAPES = [(n, k) for n in range(9) for k in range(6) if n + 2 * k <= 13]


@pytest.mark.parametrize("n,k", PENCIL_SHAPES)
def test_pencil_det_poly_matches_bareiss(n, k):
    rng = random.Random(100 * n + k)
    variables = PENCIL_VARS[:k]
    zero_row = rng.randrange(n) if n and (n + k) % 3 == 0 else None
    p = rand_pencil(rng, n, k, zero_row)
    d = p.det_poly(variables)
    if n == 0:
        assert d == MultiPoly.const(variables, 1)
        return
    assert d == det_bareiss(p.poly_matrix(variables))
    if zero_row is not None:
        assert d.is_zero()


def test_pencil_at_scales_to_integers():
    rng = random.Random(5)
    p = rand_pencil(rng, 4, 3)
    pm = p.poly_matrix(PENCIL_VARS[:3])
    for pt in [(0, 0, 0), (1, 2, 3), (Fraction(1, 2), Fraction(-2, 3), 5)]:
        s, m = p.at(pt)
        assert all(isinstance(x, int) for row in m for x in row)
        assert [[Fraction(x, s) for x in row] for row in m] == \
            [[e.evaluate(pt) for e in row] for row in pm.entries]
        assert p.det(pt) == det_cofactor(pm).evaluate(pt)


def test_pencil_degree_edges():
    # a zero row gives the bound -1 and the zero polynomial
    p = rand_pencil(random.Random(1), 3, 2, zero_row=1)
    assert p.det_poly(PENCIL_VARS[:2]).is_zero()
    # no moves give the bound 0 and the constant determinant
    q = rand_pencil(random.Random(2), 3, 0)
    assert q.det_poly(()) == MultiPoly.const((), q.det(()))
    # explicit bounds: -1 gives zero, 0 keeps the value at the origin
    r = rand_pencil(random.Random(3), 3, 2)
    assert r.det_poly(PENCIL_VARS[:2], degree=-1).is_zero()
    assert r.det_poly(PENCIL_VARS[:2], degree=0) == MultiPoly.const(PENCIL_VARS[:2], r.det((0, 0)))
    # a row touched only by a move still counts 1 toward the bound
    s = Pencil([[0, 0], [0, 1]], [[[1, 0], [0, 0]]])
    assert s.det_poly(("t",)) == MultiPoly.var(("t",), "t")


@pytest.mark.parametrize("base,moves", [
    ([[1, 0], [0, 1]], [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]),  # a 3x3 move on a 2x2 base
    ([[1, 0], [0, 1]], [[[1]]]),                             # a 1x1 move
    ([[1, 2]], []),                                          # a 1x2 base
    ([[1, 0], [0, 1]], [[[1, 0], [0, 1, 2]]]),               # a ragged move
])
def test_pencil_rejects_mismatched_shapes(base, moves):
    with pytest.raises(ValueError):
        Pencil(base, moves)


@pytest.mark.parametrize("call", [
    lambda p: p.det_poly(("t",)),
    lambda p: p.det_poly(("s", "t", "u")),
    lambda p: p.at((1,)),
    lambda p: p.det((1,)),
    lambda p: p.det((1, 2, 3)),
    lambda p: p.graded_parts(("t",), 2),
    lambda p: p.graded_parts(("s", "t", "u"), 0),
])
def test_pencil_needs_one_variable_per_move(call):
    """Two moves: a point or variable list of another length is refused
    (zip used to drop the extra moves: det((1,)) read as det((1, 0)))."""
    p = Pencil([[1, 0], [0, 1]], [[[1, 0], [0, 0]], [[0, 0], [0, 1]]])
    assert p.det((1, 2)) == 6
    with pytest.raises(ValueError, match="pencil with 2 moves"):
        call(p)


def test_det_strategies_line_can_fail_through_the_pencil(monkeypatch):
    from epw import checks

    real = Pencil.det_poly
    monkeypatch.setattr(Pencil, "det_poly", lambda self, *args: real(self, *args) * 2)
    r = checks.check_algebra_core(8)
    assert not r.ok and r.detail == "det-strategies-10x10"
