"""Determinant strategies agree with each other and with cofactor expansion."""

from fractions import Fraction
import inspect
from math import comb, factorial, prod
import os
from pathlib import Path
import random
import subprocess
import sys
import textwrap

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
    with pytest.raises(TypeError, match="floats are not allowed"):
        interpolate_poly_map(lambda pt: (Fraction(1, 3), 0.5 * pt[0]), XY, 2, 2)


# -- the held interpolation plan ---------------------------------------------------

def reference_grid_lines(grid, index, i):
    """Lines of the grid in variable i: positions of a, a + e_i, ... for
    every grid point a with a_i = 0, in increasing order of a_i."""
    lines = []
    for a in grid:
        if a[i] == 0:
            line = []
            while a in index:
                line.append(index[a])
                a = a[:i] + (a[i] + 1,) + a[i + 1:]
            lines.append(line)
    return lines


def reference_newton_stirling(grid, degree, tables):
    """The Newton-Stirling transform before the held plan: the grid index,
    its lines and the weights rebuilt on every call, nested loops over the
    lines and one sum per Stirling update."""
    index = {a: p for p, a in enumerate(grid)}
    lines = [line for i in range(len(grid[0])) for line in reference_grid_lines(grid, index, i)]
    top = factorial(degree)
    weights = [top // prod(factorial(x) for x in a) for a in grid]
    stirling = polymat._stirling1(degree)
    for tab in tables:
        for line in lines:
            for k in range(1, len(line)):
                for j in range(len(line) - 1, k - 1, -1):
                    tab[line[j]] -= tab[line[j - 1]]
        for p, w in enumerate(weights):
            tab[p] *= w
        for line in lines:
            old = [tab[p] for p in line]
            for k, p in enumerate(line):
                tab[p] = sum(stirling[a][k] * old[a] for a in range(k, len(line)))


def plan_matches_the_reference(plan, degree, width, rng):
    """_newton_stirling along plan against reference_newton_stirling on
    `width` tables of random signed integers."""
    tables = [[rng.randint(-10 ** 6, 10 ** 6) for _ in plan.grid] for _ in range(width)]
    expected = [tab[:] for tab in tables]
    reference_newton_stirling(plan.grid, degree, expected)
    polymat._newton_stirling(plan, tables)
    return tables == expected


@pytest.mark.parametrize("nvars", range(6))
def test_held_plan_matches_the_reference_transform(nvars):
    rng = random.Random(2400 + nvars)
    for degree in range(9):
        plan = polymat._plan(nvars, degree)
        assert list(plan.grid) == polymat._simplex_grid(nvars, degree)
        for width in (1, 2, 3):
            assert plan_matches_the_reference(plan, degree, width, rng), (degree, width)


def test_no_plan_is_built_at_import():
    """Plans are built on first use: a fresh process that imports the
    package and its CLI holds none."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import epw, epw.cli; print(epw.polymat._plan.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr


def test_second_call_on_a_key_builds_no_plan():
    rng = random.Random(2401)
    variables = ("a", "b", "c", "d")
    polys = [rand_poly(rng, variables, 7) for _ in range(2)]
    oracle, _ = counting_oracle(polys)
    assert interpolate_poly_map(oracle, variables, 7, 2) == polys
    held = polymat._plan(4, 7)
    before = polymat._plan.cache_info()
    assert interpolate_poly_map(oracle, variables, 7, 2) == polys
    after = polymat._plan.cache_info()
    assert (after.misses, after.hits) == (before.misses, before.hits + 1)
    assert polymat._plan(4, 7) is held


def test_alternating_keys_give_the_results_of_fresh_plans():
    """Interpolations that alternate between keys, as the chart, Schur and
    graded routes do, leave every held plan as a fresh build makes it and
    transform tables as a fresh plan does."""
    rng = random.Random(2402)
    for nvars, degree in [(5, 6), (1, 4), (2, 3), (5, 6), (0, 2), (2, 3), (1, 4), (5, 6)]:
        variables = PENCIL_VARS[:nvars]
        polys = [rand_poly(rng, variables, degree) if nvars else MultiPoly.const((), 7)
                 for _ in range(2)]
        oracle, calls = counting_oracle(polys)
        assert interpolate_poly_map(oracle, variables, degree, 2) == polys
        fresh = polymat._plan.__wrapped__(nvars, degree)
        assert polymat._plan(nvars, degree) == fresh and calls == list(fresh.grid)
        tables = [[rng.randint(-99, 99) for _ in fresh.grid] for _ in range(2)]
        copies = [tab[:] for tab in tables]
        polymat._newton_stirling(polymat._plan(nvars, degree), tables)
        polymat._newton_stirling(fresh, copies)
        assert tables == copies


@pytest.mark.parametrize("mutant", ["stirling coefficient off by one", "dropped difference pair"])
def test_mutant_plans_fail_the_reference(mutant):
    degree = 5
    plan = polymat._plan(3, degree)
    if mutant == "stirling coefficient off by one":
        i = len(plan.stirling) // 2
        t, s, c = plan.stirling[i]
        plan = plan._replace(stirling=plan.stirling[:i] + ((t, s, c + 1),) + plan.stirling[i + 1:])
    else:
        i = len(plan.diffs) // 2
        plan = plan._replace(diffs=plan.diffs[:i] + plan.diffs[i + 1:])
    assert not plan_matches_the_reference(plan, degree, 1, random.Random(2403))
    assert plan_matches_the_reference(polymat._plan(3, degree), degree, 1, random.Random(2403))


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
    """Counts of the walker's eliminations, keyed (steps, rows), and of
    int_det calls, which the walker makes none of."""
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


@pytest.fixture
def failures(monkeypatch):
    """Counts of the walker's eliminations that report a singular block,
    keyed (steps, rows).  A point is eliminated from scratch only after
    its line's prefix failed, so failures[p, side] grows exactly when a
    prefix of p >= 1 steps fails."""
    failed = Counter()
    eliminate = polymat._eliminate

    def watched(a, n, prev=1):
        sign = eliminate(a, n, prev)
        failed[n, len(a)] += not sign
        return sign

    monkeypatch.setattr(polymat, "_eliminate", watched)
    return failed


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


def singular_prefix_chart_pencil():
    """The pencil of a chart form that vanishes on the pairs containing e5:
    the fixed 4 x 4 block is 0 on every line."""
    rng = random.Random(4)
    fixed = {PAIR5_INDEX[i, 4] for i in range(4)}
    g = [[0] * 10 for _ in range(10)]
    for i in range(10):
        for j in range(i, 10):
            if not (i in fixed and j in fixed):
                g[i][j] = g[j][i] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    v0, c = standard_chart_basis()
    return chart_pencil(Chart(lagrangian_from_graph_basis(v0, c, g), v0, c))


def test_det_poly_walk_falls_back_where_the_prefix_is_singular(walk_work):
    """On singular_prefix_chart_pencil() every point is eliminated from
    scratch."""
    pencil = singular_prefix_chart_pencil()
    f = pencil.det_poly(CHART_VARS, 6)
    assert walk_work == {(4, 10): 210, (10, 10): 462}
    assert pencil.den > 1 and not f.is_zero()
    assert f == reference_det_poly(pencil, CHART_VARS, 6)


@pytest.mark.parametrize("case", ["generic", "det N = 0", "singular prefix"])
def test_det_poly_walk_scales_no_grid_point(monkeypatch, failures, case):
    """The walker builds every matrix from the integer grid point as it is:
    det_poly on a chart pencil calls scaled_ints at no point, on a generic
    chart, on a corank-1 chart (det N = 0 at the origin, after a regular
    prefix) and where every line's prefix is singular."""
    pencil = (singular_prefix_chart_pencil() if case == "singular prefix"
              else chart_pencil(chart_of_corank(int(case == "det N = 0"))))
    calls = []
    scaled = polymat.scaled_ints

    def counted(xs):
        calls.append(xs)
        return scaled(xs)

    monkeypatch.setattr(polymat, "scaled_ints", counted)
    f = pencil.det_poly(CHART_VARS, pencil_rank_bound())
    assert calls == [] and not f.is_zero()
    assert (failures[6, 6] > 0) == (case == "det N = 0")
    assert (failures[4, 10] == 210) == (case == "singular prefix")


def lines_pencil():
    """A non-symmetric pencil in three variables with L = 6, whose last
    move touches rows 2, 3 and columns 1, 3: rows 0, 1 and columns 0, 2
    lead, an odd permutation, and their block [[t1, 1], [0, t2 - 1]] is
    singular exactly on the lines t1 = 0 or t2 = 1."""
    base = [[0, 0, 1, Fraction(1, 2)], [0, 0, -1, 1], [1, 1, 0, 3], [0, -1, 2, Fraction(1, 3)]]
    moves = [[[int((i, j) == (0, 0)) for j in range(4)] for i in range(4)],
             [[int((i, j) == (1, 2)) for j in range(4)] for i in range(4)],
             [[0, 0, 0, 0], [0, 0, 0, 0], [0, Fraction(1, 2), 0, 1], [0, -1, 0, 2]]]
    return Pencil(base, moves), PENCIL_VARS[:3]


def test_det_poly_walk_on_lines_with_and_without_a_singular_prefix(walk_work):
    """The pencil of lines_pencil().  The row bound is 4: of the 15 lines
    of t3, the 8 singular ones hold 21 of the 35 grid points, each
    eliminated from scratch."""
    pencil, variables = lines_pencil()
    f = pencil.det_poly(variables)
    assert walk_work == {(2, 4): 15, (2, 2): 14, (4, 4): 21}
    assert pencil.den == 6 and not f.is_zero() and f == reference_det_poly(pencil, variables)


def test_det_poly_walk_edge_pencils(walk_work):
    rng = random.Random(8)
    g = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(5)]
    # no moves: every row and column is fixed, so one line of one point,
    # whose prefix is the whole elimination and whose trailing block is empty
    assert Pencil(g, []).det_poly(()) == reference_det_poly(Pencil(g, []), ())
    assert walk_work == {(5, 5): 1, (0, 0): 1}
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


def test_det_poly_walk_matches_the_reference_on_seeded_pencils(failures):
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
        last = pencil.moves[-1]
        p = n - max(len({i for i, _, _ in last}), len({j for _, j, _ in last}))
        before = failures[p, n]
        assert pencil.det_poly(variables) == reference_det_poly(pencil, variables), \
            "walk differs from the reference"
        seen["p = 0" if p == 0 else "p = n" if p == n else "0 < p < n"] += 1
        seen["singular prefix"] += failures[p, n] > before
        seen["den > 1"] += pencil.den > 1
    assert len(seen) == 5 and min(seen.values()) >= 10, seen


@pytest.mark.parametrize("mutant", ["resume from 1", "drop the permutation sign"])
def test_mutant_walkers_fail_the_reference(monkeypatch, mutant):
    """Two broken walkers: one resumes each point's elimination from 1, not
    from the prefix pivot; the other drops the sign of the permutation
    that brings the fixed rows and columns to the front.  Each must change
    det_poly on lines_pencil(), whose permutation is odd.  The first must
    also fail the chart test; on the symmetric chart pencils rows and
    columns move alike, so their permutation sign is always 1."""
    if mutant == "resume from 1":
        eliminate = polymat._eliminate
        monkeypatch.setattr(polymat, "_eliminate", lambda a, n, prev=1: eliminate(a, n))
        with pytest.raises(AssertionError):
            test_det_poly_walk_matches_the_reference_on_charts(1)
    else:
        monkeypatch.setattr(polymat, "_perm_sign", lambda order: 1)
    pencil, variables = lines_pencil()
    assert pencil.det_poly(variables) != reference_det_poly(pencil, variables)


def test_walker_with_move_columns_in_row_order_fails_the_seeded_pencils(monkeypatch, failures):
    """_permuted with each move's column j placed at the position of j in
    the row order: the seeded pencils whose moves touch rows and columns
    apart catch it, by a walk that differs from the reference or by an
    entry placed outside the trailing block, not by the test's count of
    the cases it reached."""
    src = textwrap.dedent(inspect.getsource(polymat._permuted))
    bad = src.replace("(at_row[i], at_col[j], c)", "(at_row[i], at_row[j], c)")
    assert bad != src
    ns = dict(vars(polymat))
    exec(compile(bad, "permuted_mutant", "exec"), ns)
    monkeypatch.setattr(polymat, "_permuted", ns["_permuted"])
    with pytest.raises((AssertionError, IndexError)) as caught:
        test_det_poly_walk_matches_the_reference_on_seeded_pencils(failures)
    assert caught.type is IndexError or "walk differs from the reference" in str(caught.value)


def reference_bordered(pencil, n, pt):
    """[D, bordered minors] at a point by one int_det each: the leading
    n x n block of the integer pencil, then that block bordered by row i
    and column j for i, j >= n, row-major."""
    m = pencil.at(pt)[1]
    side = len(m)

    def minor(i, j):
        keep = list(range(n)) + [i]
        return int_det([[m[r][c] for c in list(range(n)) + [j]] for r in keep])

    return [int_det([row[:n] for row in m[:n]])] + [minor(i, j) for i in range(n, side)
                                                    for j in range(n, side)]


def test_walker_gives_the_bordered_minors_on_seeded_pencils(failures):
    """Pencil.bordered(n) at n < side, at every point of a degree-2 grid in
    its order, against reference_bordered on seeded rational pencils with
    many zeros, whose last move touches random rows and columns: every p
    from 0 to n, singular prefixes, and points where
    the n x n block is singular although the line's prefix is not, which
    take one int_det per bordered minor.  A resumed elimination takes n - p steps on side -
    p rows."""
    rng = random.Random(2303)
    seen = Counter()

    def rat():
        return Fraction(rng.randint(-2, 2), rng.randint(1, 2)) if rng.random() < 0.5 else 0

    for _ in range(200):
        side, k = rng.randint(2, 5), rng.randint(1, 3)
        n = rng.randint(0, side - 1)
        rows, cols = (rng.sample(range(side), rng.randint(1, side)) for _ in range(2))
        mats = [[[rat() for _ in range(side)] for _ in range(side)] for _ in range(k + 1)]
        mats[-1] = [[x if i in rows and j in cols else 0 for j, x in enumerate(row)]
                    for i, row in enumerate(mats[-1])]
        if rng.random() < 0.3:
            mats = [[[m[min(i, j)][max(i, j)] for j in range(side)] for i in range(side)]
                    for m in mats]
        pencil = Pencil(mats[0], mats[1:])
        last = pencil.moves[-1]
        p = n - max(len({i for i, _, _ in last if i < n}), len({j for _, j, _ in last if j < n}))
        prefix, resumed = failures[p, side], failures[n - p, side - p]
        walk = pencil.bordered(n)
        for pt in polymat._simplex_grid(k, 2):
            assert walk(pt) == reference_bordered(pencil, n, pt)
        seen["p = 0" if p == 0 else "p = n" if p == n else "0 < p < n"] += 1
        seen["singular prefix"] += failures[p, side] > prefix
        seen["singular block, regular prefix"] += failures[n - p, side - p] > resumed
        seen["den > 1"] += pencil.den > 1
    assert len(seen) == 6 and min(seen.values()) >= 10, seen


# -- the graded route: one elimination per direction --------------------------------------


def reference_graded_parts(pencil, variables, top):
    """Phi_0..Phi_top by the s-grid route: along each direction u = (1, y)
    of the triangular y-grid of degree min(top, d), the d + 1 values
    L^n det(base + s Q_u) at s = 0..d, each an integer determinant, are
    interpolated in s and then in y; d is the row bound."""
    d = pencil._row_bound()
    zero = MultiPoly.zero(variables)
    reach = min(top, d)
    if reach < 0:
        return [zero] * (top + 1)
    n = len(pencil.base)
    det0 = int_det(pencil.base)
    if reach == 0:
        return [MultiPoly.const(variables, Fraction(det0, pencil.den ** n))] + [zero] * top
    yplan = polymat._plan(len(pencil.moves) - 1, reach)
    series = []
    for y in yplan.grid:
        q = [[0] * n for _ in range(n)]
        for ua, move in zip((1,) + y, pencil.moves):
            for i, j, c in move:
                q[i][j] += ua * c
        series.append([det0] + [int_det([[b + s * x for b, x in zip(brow, qrow)]
                                         for brow, qrow in zip(pencil.base, q)])
                                for s in range(1, d + 1)])
    polymat._newton_stirling(polymat._plan(1, d), series)
    tables = [[vals[i] for vals in series] for i in range(reach + 1)]
    polymat._newton_stirling(yplan, tables)
    scale = pencil.den ** n * factorial(d) * factorial(reach)
    return [MultiPoly(variables, {(i - sum(b),) + b: Fraction(c, scale)
                                  for b, c in zip(yplan.grid, tab) if c})
            for i, tab in enumerate(tables)] + [zero] * (top - reach)


def graded_cases():
    """Seeded pencils for the graded route, as (kind, d, pencil,
    variables): every row bound d = 0..8 (the rows the moves touch) with
    each kind: small entries, entries of 2^60 and more, entries with
    mixed denominators, a zero column, whose determinant is identically
    zero although no row is, and diagonal pencils with positive entries,
    whose coefficients sum to the product of the column sums, so H is
    nearly tight."""
    rng = random.Random(2501)
    for case in range(90):
        kind = ("small", "huge", "rational", "zero column", "positive diagonal")[case % 5]
        d, k = case % 9, rng.randint(1, 3)
        n = rng.randint(max(d, 1), 8)
        moving = rng.sample(range(n), d)

        def entry():
            if kind == "huge":
                return rng.choice((-1, 1)) * rng.randint(2 ** 60, 2 ** 64)
            if kind == "rational":
                return Fraction(rng.randint(-9, 9), rng.randint(1, 12))
            return rng.randint(-5, 5)

        if kind == "positive diagonal":
            base = [[rng.randint(1, 2 ** 20) * (i == j) for j in range(n)] for i in range(n)]
            moves = [[[rng.randint(1, 2 ** 20) * (i == j and i in moving) for j in range(n)]
                      for i in range(n)] for _ in range(k)]
        else:
            base = [[entry() for _ in range(n)] for _ in range(n)]
            moves = [[[entry() if i in moving else 0 for _ in range(n)] for i in range(n)]
                     for _ in range(k)]
            if kind == "zero column":
                c = rng.randrange(n)
                for m in [base] + moves:
                    for row in m:
                        row[c] = 0
        yield kind, d, Pencil(base, moves), PENCIL_VARS[:k]


def graded_mismatches():
    """The (kind, d, top) of every graded case and top = 0..d + 2 where
    graded_parts differs from reference_graded_parts."""
    out = []
    for kind, d, pencil, variables in graded_cases():
        for top in range(d + 3):
            if pencil.graded_parts(variables, top) != reference_graded_parts(pencil, variables, top):
                out.append((kind, d, top))
    return out


def test_graded_parts_match_the_s_grid_route():
    seen = {(kind, d) for kind, d, _, _ in graded_cases()}
    assert len(seen) == 5 * 9
    assert graded_mismatches() == []


def test_graded_parts_with_two_bit_digits_fail_the_s_grid_route(monkeypatch):
    """Digits of width 2 cannot hold the coefficients, so the decode must
    go wrong on every kind of pencil whose determinant is not zero."""
    monkeypatch.setattr(polymat, "_digit_width", lambda base_norms, q: 2)
    kinds = {kind for kind, d, top in graded_mismatches()}
    assert kinds == {"small", "huge", "rational", "positive diagonal"}


def test_graded_parts_eliminate_once_per_direction(monkeypatch):
    """One _eliminate of side n per direction of the y-grid of degree
    min(top, d), and no int_det, once the reach is positive; at reach 0
    one int_det of the base and no elimination."""
    work = Counter()
    eliminate, det = polymat._eliminate, polymat.int_det

    def counted_eliminate(a, n, prev=1):
        work["eliminate", n, len(a)] += 1
        return eliminate(a, n, prev)

    def counted_det(m):
        work["int_det"] += 1
        return det(m)

    monkeypatch.setattr(polymat, "_eliminate", counted_eliminate)
    monkeypatch.setattr(polymat, "int_det", counted_det)
    rng = random.Random(2502)
    for k in range(1, 6):
        pencil = rand_pencil(rng, 6, k)
        d = pencil._row_bound()
        assert d == 6
        for top in (0, 1, 2, 4, 9):
            work.clear()
            pencil.graded_parts(PENCIL_VARS[:k], top)
            reach = min(top, d)
            if reach == 0:
                assert work == {"int_det": 1}
            else:
                assert work == {("eliminate", 6, 6): comb(reach + k - 1, k - 1)}
