"""Determinant strategies agree with each other and with cofactor expansion."""

from fractions import Fraction
from math import comb
import random

import pytest

from collections import Counter

from epw import polymat
from epw.local_model import CHART_VARS, Chart, chart_pencil, pencil_rank_bound
from epw.poly import MultiPoly, poly_from_text
from epw.polymat import (
    Pencil, PolyMatrix, det_poly_matrix, det_bareiss, det_cofactor, det_interpolate,
    adjugate_poly_matrix, interpolate_poly_map,
)
from epw.wedge import (
    PAIR5_INDEX, lagrangian_from_graph_basis, random_graph_lagrangian, standard_chart_basis,
)
from epw.zlinalg import int_det

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


def rand_sparse_entry(rng, variables):
    """Zero about a third of the time, else up to three terms of degree <= 2
    with rational coefficients."""
    if rng.random() < 0.35:
        return MultiPoly.zero(variables)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = [0] * len(variables)
        for _ in range(rng.randint(0, 2)):
            e[rng.randrange(len(variables))] += 1
        terms[tuple(e)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return MultiPoly(variables, terms)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_shared_bareiss_loop_matches_cofactor_with_swaps_and_singular(n):
    """det_bareiss runs zlinalg._eliminate on polynomial entries: it agrees
    with cofactor expansion when zero leading entries force row swaps and
    when the matrix is singular (a repeated row, a polynomial multiple of
    a row, a zero column)."""
    rng = random.Random(1900 + n)
    z = MultiPoly.zero(XY)
    x = MultiPoly.var(XY, "x")
    swaps = singular = 0
    for trial in range(40 if n <= 4 else 12):
        rows = [[rand_sparse_entry(rng, XY) for _ in range(n)] for _ in range(n)]
        if trial % 4 == 1:
            rows[0][0] = z
        elif trial % 4 == 2 and n > 1:
            src, dst = rng.sample(range(n), 2)
            f = x + rng.randint(-2, 2) if trial % 8 == 2 else MultiPoly.const(XY, 1)
            rows[dst] = [f * e for e in rows[src]]
        elif trial % 4 == 3:
            col = rng.randrange(n)
            for row in rows:
                row[col] = z
        m = PolyMatrix(rows)
        expected = det_cofactor(m)
        assert det_bareiss(m) == expected
        swaps += rows[0][0].is_zero() and not expected.is_zero()
        singular += expected.is_zero()
    assert singular > 0
    if n > 1:
        assert swaps > 0


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


@pytest.mark.parametrize("call", [
    lambda: Pencil([[1, 0], [0, 1]], [[[1, 0], [0, 0]]]).det([0.1]),
    lambda: Pencil([[1, 0], [0, 1]], [[[1, 0], [0, 0]]]).at((2.0,)),
    lambda: Pencil([[1, 0.5], [0, 1]], []),
    lambda: Pencil([[1, 0], [0, 1]], [[[1, 0], [0, 0.25]]]),
])
def test_pencil_refuses_floats(call):
    """det([0.1]) was 39631676720860365/36028797018963968: the float's
    binary value, read exactly."""
    with pytest.raises(TypeError, match="floats are not allowed"):
        call()


def test_det_strategies_line_can_fail_through_the_pencil(monkeypatch):
    from epw import checks

    real = Pencil.det_poly
    monkeypatch.setattr(Pencil, "det_poly", lambda self, *args: real(self, *args) * 2)
    r = checks.check_algebra_core(8)
    assert not r.ok and r.detail == "det-strategies-10x10"


# -- the line walk of det_poly ---------------------------------------------------------

def reference_det_poly(pencil, variables, degree=None):
    """det_poly by one int_det per grid point, interpolated and divided by
    L^side: the route before the line walk."""
    if degree is None:
        degree = pencil._row_bound()
    if degree < 0:
        return MultiPoly.zero(variables)
    f = interpolate_poly_map(lambda pt: (int_det(pencil.at(pt)[1]),), variables, degree, 1)[0]
    return f * Fraction(1, pencil.den ** len(pencil.base))


@pytest.fixture
def walk_work(monkeypatch):
    """Counts of the walk's eliminations, keyed (steps, rows), and of the
    int_det calls of its singular-prefix lines."""
    work = Counter()
    eliminate, det = polymat._eliminate, polymat.int_det

    def counted_eliminate(a, n, prev=1):
        work[n, len(a)] += 1
        return eliminate(a, n, prev)

    def counted_det(m):
        work["int_det"] += 1
        return det(m)

    monkeypatch.setattr(polymat, "_eliminate", counted_eliminate)
    monkeypatch.setattr(polymat, "int_det", counted_det)
    return work


def chart_of_corank(k):
    frame, _ = random_graph_lagrangian(random.Random(90 + k), corank=k)
    v0, c = standard_chart_basis()
    return Chart(frame, v0, c)


@pytest.mark.parametrize("k", range(5))
def test_det_poly_walk_matches_the_reference_on_charts(k):
    pencil = chart_pencil(chart_of_corank(k))
    bound = pencil_rank_bound()
    assert pencil.det_poly(CHART_VARS, bound) == reference_det_poly(pencil, CHART_VARS, bound)


def test_det_poly_walk_work_on_a_generic_chart(walk_work):
    """The last move touches the six bivectors without e5: one 4-step
    prefix per line of t5 (210 lines) and one 6-step trailing elimination
    per grid point (462), no int_det."""
    chart_pencil(chart_of_corank(0)).det_poly(CHART_VARS, pencil_rank_bound())
    assert walk_work == {(4, 10): 210, (6, 6): 462}


def test_det_poly_walk_falls_back_where_the_prefix_is_singular(walk_work):
    """A chart form that vanishes on the pairs containing e5: the fixed
    4 x 4 block is 0 on every line, so every point takes int_det."""
    rng = random.Random(4)
    fixed = {PAIR5_INDEX[i, 4] for i in range(4)}
    g = [[0] * 10 for _ in range(10)]
    for i in range(10):
        for j in range(i, 10):
            if not (i in fixed and j in fixed):
                g[i][j] = g[j][i] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    v0, c = standard_chart_basis()
    pencil = chart_pencil(Chart(lagrangian_from_graph_basis(v0, c, g), v0, c))
    f = pencil.det_poly(CHART_VARS, 6)
    assert walk_work == {(4, 10): 210, "int_det": 462}
    assert pencil.den > 1 and not f.is_zero()
    assert f == reference_det_poly(pencil, CHART_VARS, 6)


def test_det_poly_walk_on_lines_with_and_without_a_singular_prefix(walk_work):
    """Non-symmetric, with L = 6: the last move touches rows 2, 3 and
    columns 1, 3, so rows 0, 1 and columns 0, 2 lead, and their block
    [[t1, 1], [0, t2 - 1]] is singular exactly on the lines t1 = 0 or
    t2 = 1.  The row bound is 4: of the 15 lines of t3, the 8 singular
    ones hold 21 of the 35 grid points."""
    base = [[0, 0, 1, Fraction(1, 2)], [0, 0, -1, 1], [1, 1, 0, 3], [0, -1, 2, Fraction(1, 3)]]
    moves = [[[int((i, j) == (0, 0)) for j in range(4)] for i in range(4)],
             [[int((i, j) == (1, 2)) for j in range(4)] for i in range(4)],
             [[0, 0, 0, 0], [0, 0, 0, 0], [0, Fraction(1, 2), 0, 1], [0, -1, 0, 2]]]
    pencil = Pencil(base, moves)
    variables = PENCIL_VARS[:3]
    f = pencil.det_poly(variables)
    assert walk_work == {(2, 4): 15, (2, 2): 14, "int_det": 21}
    assert pencil.den == 6 and not f.is_zero() and f == reference_det_poly(pencil, variables)


def test_det_poly_walk_edge_pencils(walk_work):
    rng = random.Random(8)
    g = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(5)]
    # no moves: one int_det
    assert Pencil(g, []).det_poly(()) == reference_det_poly(Pencil(g, []), ())
    assert walk_work == {"int_det": 1}
    # Pencil(G, [-I]), the signature's pencil: no prefix, the whole matrix
    # trails, as one int_det per point did
    walk_work.clear()
    minus_id = [[-int(i == j) for j in range(5)] for i in range(5)]
    p = Pencil(g, [minus_id])
    assert p.det_poly(("x",)) == reference_det_poly(p, ("x",))
    assert walk_work == {(0, 5): 1, (5, 5): 6}
    # a zero last move: every row and column is fixed, one elimination per
    # line gives the determinant all along it, and the trailing block is empty
    walk_work.clear()
    p = Pencil(g, [minus_id, [[0] * 5 for _ in range(5)]])
    assert p.det_poly(("x", "y"), 3) == reference_det_poly(p, ("x", "y"), 3)
    assert walk_work == {(5, 5): 4, (0, 0): 10}


def test_det_poly_walk_matches_the_reference_on_seeded_pencils(walk_work):
    """Rational pencils, a third of them symmetric, whose last move touches
    random rows and columns: every p from 0 to n, and singular prefixes."""
    rng = random.Random(2202)
    seen = Counter()

    def rat():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.6 else 0

    for _ in range(150):
        n, k = rng.randint(1, 6), rng.randint(1, 3)
        rows = rng.sample(range(n), rng.randint(1, n) if rng.random() < 0.9 else 0)
        cols = rng.sample(range(n), rng.randint(1, n))
        mats = [[[rat() for _ in range(n)] for _ in range(n)] for _ in range(k + 1)]
        mats[-1] = [[x if i in rows and j in cols else 0 for j, x in enumerate(row)]
                    for i, row in enumerate(mats[-1])]
        if rng.random() < 0.3:
            mats = [[[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)] for m in mats]
        pencil = Pencil(mats[0], mats[1:])
        variables = PENCIL_VARS[:k]
        before = walk_work["int_det"]
        assert pencil.det_poly(variables) == reference_det_poly(pencil, variables)
        last = pencil.moves[-1]
        p = n - max(len({i for i, _, _ in last}), len({j for _, j, _ in last}))
        seen["p = 0" if p == 0 else "p = n" if p == n else "0 < p < n"] += 1
        seen["singular prefix"] += walk_work["int_det"] > before
        seen["den > 1"] += pencil.den > 1
    assert len(seen) == 5 and min(seen.values()) >= 10, seen
