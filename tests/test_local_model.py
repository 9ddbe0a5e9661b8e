"""Charts, the local sextic, Taylor orders, Schur data, double covers."""

from fractions import Fraction
import random

import pytest

from epw import linalg
from epw.linalg import rank
from epw.poly import MultiPoly, homogeneous_part, poly_from_text, quadratic_form_rank
from epw.wedge import (
    LagrangianFrame, Subspace3,
    lagrangian_from_graph_basis, lagrangian_containing, random_graph_lagrangian,
    symmetric_with_kernel, random_vector, standard_chart_basis,
    trivector_from_vectors,
    _unit, PAIR5_INDEX,
)
from epw import checks, local_model, wedge
from epw.local_model import (
    Chart, ChartError, chart_pencil, make_chart, local_sextic, taylor_order_check, rank_f2,
    schur_complement, schur_identity_check, double_cover_ideal,
    sextic_singularity, pencil_rank_bound, CHART_VARS,
)
from epw.polymat import Pencil, adjugate_poly_matrix, det_bareiss, det_poly_matrix
from epw.zlinalg import bareiss_solve, int_adjugate, int_gram


def unit(i):
    return _unit(i - 1)


def reference_pencil_gram(g, t):
    """G - sum_a t_a B_a in Fractions, entry by entry from wedge._B5."""
    return [[Fraction(g[i][j]) - sum(Fraction(x) * b[i][j] for x, b in zip(t, wedge._B5))
             for j in range(10)] for i in range(10)]


def wedge3_frame(idxs):
    from itertools import combinations
    vecs = [unit(i) for i in idxs]
    rows = [trivector_from_vectors(vecs[a], vecs[b], vecs[c])
            for (a, b, c) in combinations(range(len(vecs)), 3)]
    return LagrangianFrame(rows)


def vee_frame(v0):
    from itertools import combinations
    rows = [trivector_from_vectors(v0, _unit(i), _unit(j))
            for (i, j) in combinations(range(6), 2)]
    return LagrangianFrame(linalg.row_basis(rows))


W123 = Subspace3([unit(1), unit(2), unit(3)])


# -- charts -------------------------------------------------------------------

def test_make_chart_for_graph_instance():
    rng = random.Random(1)
    frame, g = random_graph_lagrangian(rng)
    ch = make_chart(frame, unit(1))
    assert ch.form.gram == g  # first coordinate complement is the standard chart


def test_chart_rejects_non_transversal_and_non_spanning_bases():
    plane = lagrangian_containing(W123, level=1, seed=18)
    # Lambda^3 <e1, e2, e3, e5, e6> contains e123, which lies in A
    with pytest.raises(ValueError, match="not transversal"):
        Chart(plane, unit(4), [unit(1), unit(2), unit(3), unit(5), unit(6)])
    frame, _ = random_graph_lagrangian(random.Random(1))
    with pytest.raises(ValueError, match="do not span V"):
        Chart(frame, unit(1), [unit(1), unit(3), unit(4), unit(5), unit(6)])
    with pytest.raises(ValueError, match="do not span V"):
        Chart(frame, unit(1), [unit(2), unit(3), unit(4), unit(5), [1, 1, 1, 1, 1, 0]])


@pytest.mark.parametrize("center", [[1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0], []])
def test_make_chart_rejects_a_center_without_six_coordinates(center):
    frame, _ = random_graph_lagrangian(random.Random(1))
    with pytest.raises(ValueError, match="6 coordinates"):
        make_chart(frame, center)


def test_make_chart_vee_wedge_any_complement():
    frame = vee_frame(unit(1))
    ch = make_chart(frame, unit(1))
    assert ch.form.corank() == 10


def test_make_chart_pathological_failure():
    frame = wedge3_frame([1, 2, 3, 4, 5])
    with pytest.raises(ChartError):
        make_chart(frame, unit(6), attempts=12)


def test_make_chart_exhaustive_failure_for_wedge3():
    """For A = Lambda^3 of a 5-space every complement V0 meets A in the 4-dim
    Lambda^3(V0 ∩ V5): transversality fails at every center, matching the
    rank oracle on each coordinate complement."""
    frame = wedge3_frame([1, 2, 3, 4, 5])
    from itertools import combinations
    for excl in range(6):
        basis = [unit(i + 1) for i in range(6) if i != excl]
        tri = [trivector_from_vectors(basis[i], basis[j], basis[k])
               for (i, j, k) in combinations(range(5), 3)]
        assert rank(linalg.stack(frame.matrix, tri)) < 20
    with pytest.raises(ChartError):
        make_chart(frame, unit(1), attempts=10)


def pinned_charts():
    """Seeded charts of corank 0-4 at e1: the standard chart and two random
    complements each, then make_chart at a seeded point off the center."""
    charts = []
    for k in range(5):
        for s in range(2):
            rng = random.Random(300 + 10 * k + s)
            frame, _ = random_graph_lagrangian(rng, corank=k)
            charts += [Chart(frame, unit(1), basis)
                       for basis in local_model._complements(unit(1), s, 3)]
            charts.append(make_chart(frame, random_vector(rng, 6, nonzero=True), seed=s))
    return charts


def test_chart_form_is_the_degeneracy_and_the_kernel():
    """k = dim(A ∩ (v0 ^ Lambda^2 V)) is the corank of q_A in every chart
    at v0, and the form's kernel is the Fraction nullspace of its Gram,
    its integer rows that nullspace scaled to integers."""
    charts = pinned_charts()
    assert {ch.form.corank() for ch in charts} == {0, 1, 2, 3, 4}
    for ch in charts:
        kern = linalg.nullspace(ch.form.gram)
        assert ch.form.corank() == wedge.degeneracy_dim(ch.frame, ch.v0)
        assert ch.form.kernel() == kern
        assert ch.form.kernel_rows() == [linalg.scaled_ints(r)[1] for r in kern]


# -- the local sextic ------------------------------------------------------------

def test_pathological_sextic_vanishes():
    frame = vee_frame(unit(1))
    ch = Chart(frame, unit(1), standard_chart_basis()[1])
    ls = local_sextic(ch)
    assert ls.f.is_zero()
    assert ls.is_pathological()


def test_generic_sextic_degree_and_constant():
    rng = random.Random(3)
    frame, g = random_graph_lagrangian(rng)
    ch = Chart(frame, unit(1), standard_chart_basis()[1])
    ls = local_sextic(ch)
    assert ls.degree() <= 6
    assert ls.f.constant_term() != 0  # k = 0 at the center
    # Bareiss over Q[t] on the symbolic chart pencil agrees
    assert det_bareiss(chart_pencil(ch).poly_matrix(CHART_VARS)) == ls.f


def test_sextic_vanishing_on_contained_plane():
    """P(W) inside the degeneracy locus: f vanishes along the W directions."""
    a = lagrangian_containing(W123, level=1, seed=5)
    ch = make_chart(a, unit(1))
    ls = local_sextic(ch)
    rng = random.Random(8)
    for _ in range(8):
        w = [sum(Fraction(rng.randint(-4, 4)) * W123.rows[t][i] for t in range(3))
             for i in range(6)]
        # solve v0 + sum t_a c_a = lambda * w for (t, lambda)
        cols = [[-c[i] for c in ch.basis] + [w[i]] for i in range(6)]
        sol = linalg.solve(cols, ch.v0)
        if sol is None:
            continue
        t = [sol[j] for j in range(5)]
        assert ls.f.evaluate(t) == 0


# -- Taylor orders -----------------------------------------------------------------

@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_taylor_orders_generic(k):
    rng = random.Random(100 + k)
    frame, g = random_graph_lagrangian(rng, corank=k)
    ch = Chart(frame, unit(1), standard_chart_basis()[1])
    rep = taylor_order_check(ch)
    assert rep.k == k
    assert rep.theta_case is False
    assert rep.ok, rep.lines()


def test_taylor_orders_plane_case():
    a = lagrangian_containing(W123, level=1, seed=17)
    ch = make_chart(a, unit(1))
    rep = taylor_order_check(ch, known_theta=[W123])
    assert rep.theta_case is True
    assert rep.ok, rep.lines()
    # with the plane not supplied, the generic k=1 statement also holds,
    # but the stronger f1 = 0 comes only from the plane
    ls = local_sextic(ch)
    assert ls.part(0).is_zero() and ls.part(1).is_zero()


def test_k1_instance_f0_zero_f1_nonzero():
    rng = random.Random(202)
    while True:
        frame, g = random_graph_lagrangian(rng, corank=1)
        kern = linalg.nullspace(g)[0]
        # kernel bivector must not be decomposable, else a Theta plane runs
        # through the center and f1 vanishes too
        from epw.wedge import PAIRS5
        vals = {}
        for idx, (i, j) in enumerate(PAIRS5):
            if kern[idx] != 0:
                vals[(i, j)] = kern[idx]
        # alpha ^ alpha != 0 test in Lambda^4
        square_nonzero = False
        from itertools import combinations
        for (p1, p2) in combinations(vals, 2):
            if len(set(p1) | set(p2)) == 4:
                square_nonzero = True
        if square_nonzero:
            break
    ch = Chart(frame, unit(1), standard_chart_basis()[1])
    ls = local_sextic(ch)
    assert ls.part(0).is_zero()
    assert not ls.part(1).is_zero()


# -- rank of f2 ---------------------------------------------------------------------

@pytest.mark.parametrize("level,expected", [(1, 3), (2, 2), (3, 1)])
def test_rank_f2_levels(level, expected):
    a = lagrangian_containing(W123, level=level, seed=40 + level)
    ch = make_chart(a, unit(1))
    assert rank_f2(ch, W123) == expected


def test_rank_f2_rejects_curve_point():
    rng = random.Random(31)
    v0, c = standard_chart_basis()
    idx2 = PAIR5_INDEX[(0, 1)]
    idx3 = PAIR5_INDEX[(0, 2)]
    kernel = [[Fraction(int(i == idx2)) for i in range(10)],
              [Fraction(int(i == idx3)) for i in range(10)]]
    g = symmetric_with_kernel(rng, 10, kernel)
    a = lagrangian_from_graph_basis(v0, c, g)
    ch = Chart(a, v0, c)
    with pytest.raises(ValueError):
        rank_f2(ch, W123)


# -- certified degree bound -------------------------------------------------------------

def test_pencil_rank_bound_is_sound_and_sharp():
    # M(t) pairs alpha, beta to v ^ alpha ^ beta; its kernel is v ^ V0, of
    # dimension 4, so the generic rank is 6 and the certificate is sharp
    r = pencil_rank_bound()
    rng = random.Random(3)
    t = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(5)]
    assert rank(reference_pencil_gram(linalg.zeros(10, 10), t)) == r == 6


def test_local_pencil_matches_gram_at_rational_points():
    rng = random.Random(8)
    frame, _ = random_graph_lagrangian(rng, corank=1)
    ch = Chart(frame, unit(1), standard_chart_basis()[1])
    pencil = chart_pencil(ch)
    for pt in checks.off_grid_points(4) + checks.off_grid_points(5) + [[0, 1, 2, 0, 3]]:
        s, m = pencil.at(pt)
        assert all(isinstance(x, int) for row in m for x in row)
        assert pencil.det(pt) == linalg.det(reference_pencil_gram(ch.form.gram, pt))


def test_flipped_sign_raises_the_certified_bound(monkeypatch):
    b5 = [[row[:] for row in b] for b in wedge._B5]
    b5[2][0][9] = -b5[2][0][9]
    assert b5[2][0][9] != 0
    monkeypatch.setattr(wedge, "_B5", b5)
    pencil_rank_bound.cache_clear()
    try:
        assert pencil_rank_bound() > 6 or not checks.check_epw_degree_bound(seed=1, count=4).ok
    finally:
        pencil_rank_bound.cache_clear()


def test_off_grid_check_catches_a_low_degree_bound(monkeypatch):
    rng = random.Random(1)
    frame, _ = random_graph_lagrangian(rng)
    ch = Chart(frame, unit(1), standard_chart_basis()[1])
    points = checks.off_grid_points(1)
    f = local_sextic(ch).f
    assert f.degree() == 6 and checks.sextic_matches_pencil(ch, f, points)
    monkeypatch.setattr(local_model, "pencil_rank_bound", lambda: 5)
    g = local_sextic(ch).f
    assert g != f
    assert not checks.sextic_matches_pencil(ch, g, points)


# -- Schur data ------------------------------------------------------------------------

def test_schur_k0_degenerates():
    rng = random.Random(51)
    frame, g = random_graph_lagrangian(rng)
    ch = Chart(frame, unit(1), standard_chart_basis()[1])
    sd = schur_complement(ch)
    assert sd.k == 0
    assert sd.m_hat is None
    assert schur_identity_check(ch, sd)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_schur_identity_exact(k):
    rng = random.Random(60 + k)
    frame, g = random_graph_lagrangian(rng, corank=k)
    ch = Chart(frame, unit(1), standard_chart_basis()[1])
    sd = schur_complement(ch)
    assert sd.k == k
    assert len(sd.j_indices) == 10 - k
    assert schur_identity_check(ch, sd)


def reference_schur_oracle(pencil, jdim, pt):
    """(D, M_hat entries) at a point by one fraction-free solve: N Y =
    det(N) R^t, then M_hat = det(N) P - R Y, or -R adj(N) R^t when
    det(N) = 0; N, R, P are the J, kernel-by-J and kernel blocks of the
    integer pencil at the point, scaled back by s as the oracle is."""
    s, m = pencil.at(pt)
    k = len(m) - jdim
    nq = [row[:jdim] for row in m[:jdim]]
    r = [row[:jdim] for row in m[jdim:]]
    det, y = bareiss_solve(nq, [list(col) for col in zip(*r)])
    if y is None:
        mh = [-v for row in int_gram(int_adjugate(nq), r) for v in row]
    else:
        mh = [det * m[jdim + i][jdim + j] - sum(r[i][t] * y[t][j] for t in range(jdim))
              for i in range(k) for j in range(k)]
    return [Fraction(det, s ** jdim)] + [Fraction(v, s ** (jdim + 1)) for v in mh]


def hyperbolic_chart(k):
    """The standard chart of the graph of a form with zero diagonal:
    hyperbolic pairs of weights 1, 2, ... on the first 10 - k coordinates
    (one diagonal 2 when 10 - k is odd) and a k-dimensional kernel.  No
    single coordinate is a nonsingular block, so J is grown by pairs and
    the oracle's elimination swaps rows, and det(N) vanishes at some grid
    points."""
    g = [[Fraction(0)] * 10 for _ in range(10)]
    for b in range((10 - k) // 2):
        g[2 * b][2 * b + 1] = g[2 * b + 1][2 * b] = Fraction(1 + b)
    if (10 - k) % 2:
        g[9 - k][9 - k] = Fraction(2)
    v0, c = standard_chart_basis()
    return Chart(lagrangian_from_graph_basis(v0, c, g), v0, c)


@pytest.mark.parametrize("case", [1, 2, 3, 4, "formstan", "hyperbolic-1", "hyperbolic-2"])
def test_schur_oracle_matches_the_solve_reference(monkeypatch, case):
    """At every grid point the oracle equals the one-solve reference, on
    seeded standard charts of corank 1-4, on the formstan chart with its
    supplied kernel basis, and on charts whose elimination swaps rows and
    meets det(N) = 0."""
    k_basis = None
    if case == "formstan":
        chart, k_basis = checks.formstan_instance()
    elif str(case).startswith("hyperbolic"):
        chart = hyperbolic_chart(int(case[-1]))
    else:
        frame, _ = random_graph_lagrangian(random.Random(90 + case), corank=case)
        chart = Chart(frame, unit(1), standard_chart_basis()[1])
    calls = []
    interpolate = local_model.interpolate_poly_map

    def capture(oracle, *args):
        def record(pt):
            calls.append((pt, oracle(pt)))
            return calls[-1][1]
        return interpolate(record, *args)

    monkeypatch.setattr(local_model, "interpolate_poly_map", capture)
    sd = schur_complement(chart, k_basis=k_basis)
    c = sd.adapted
    pencil = Pencil(linalg.restrict_gram(chart.form.gram, c),
                    [int_gram(b, c) for b in local_model.moving_int_matrices()])
    assert len(calls) == 462
    for pt, out in calls:
        assert list(out) == reference_schur_oracle(pencil, 10 - sd.k, pt)
    if str(case).startswith("hyperbolic"):
        assert any(out[0] == 0 for _, out in calls)


def test_schur_oracle_singular_branch_is_the_solve_without_det_p(monkeypatch):
    """At every point the eliminated branch gives M_hat = det(N) P - R adj(N) R^t;
    the det(N) = 0 branch gives -R adj(N) R^t.  Forcing that branch (an
    elimination that reports a singular N) at points where det(N) != 0 must
    therefore change M_hat by exactly det(N) P, with P the kernel block of
    the congruent pencil."""
    frame, _ = random_graph_lagrangian(random.Random(62), corank=2)
    ch = Chart(frame, unit(1), standard_chart_basis()[1])
    oracles = []
    interpolate = local_model.interpolate_poly_map

    def capture(oracle, *args):
        oracles.append(oracle)
        return interpolate(oracle, *args)

    monkeypatch.setattr(local_model, "interpolate_poly_map", capture)
    sd = schur_complement(ch)
    k, c = sd.k, sd.adapted
    jdim = 10 - k
    moves = [[[sum(c[r][x] * b[x][y] * c[q][y] for x in range(10) for y in range(10))
               for q in range(jdim, 10)] for r in range(jdim, 10)]
             for b in local_model.moving_int_matrices()]
    points = [(1, 0, 2, -1, 0), (2, 1, 1, 1, 0), (0, 0, 0, 0, 0)]
    eliminated = [oracles[0](pt) for pt in points]
    monkeypatch.setattr(local_model, "_eliminate", lambda m, n: 0)
    for pt, out in zip(points, eliminated):
        forced = oracles[0](pt)
        assert out[0] != 0 and forced[0] == 0
        for i in range(k):
            for j in range(k):
                p = sum(t * move[i][j] for t, move in zip(pt, moves))
                assert out[1 + i * k + j] == forced[1 + i * k + j] + out[0] * p


def test_schur_k2_formstan_and_fiber_rank():
    ch, kbasis = checks.formstan_instance()
    sd = schur_complement(ch, k_basis=kbasis)
    assert sd.k == 2
    assert schur_identity_check(ch, sd)
    # shape of M_hat / D per the normal form: the (w1w2, w1w2) entry has no
    # linear term, the mixed entry starts with t3 (the u1 coordinate) and
    # the (beta, beta) entry starts with -2 t2 (the w2 coordinate)
    d0 = sd.denom.constant_term()
    m = sd.m_hat.entries
    lin = lambda p: homogeneous_part(p, 1)
    t = {v: MultiPoly.var(CHART_VARS, v) for v in CHART_VARS}
    # in our pencil orientation the displacement coordinates are the
    # negatives of the classical ones, so "t1 + h.o.t." and "-2 s2 + h.o.t."
    # appear with flipped signs: -t3 and +2 t2 in chart coordinates
    assert lin(m[0][0]).is_zero()
    assert lin(m[0][1]) == d0 * (-1) * t["t3"]
    assert lin(m[1][1]) == d0 * 2 * t["t2"]
    # quadratic part of the (w1w2, w1w2) entry has rank 2 in (t4, t5)
    q00 = homogeneous_part(m[0][0], 2)
    assert quadratic_form_rank(q00) == 2
    gq = __import__("epw.poly", fromlist=["quadratic_form_gram"]).quadratic_form_gram(q00)
    assert all(gq[i][j] == 0 for i in range(5) for j in range(5)
               if i < 3 or j < 3)


def test_double_cover_k0_empty():
    rng = random.Random(80)
    frame, g = random_graph_lagrangian(rng)
    ch = Chart(frame, unit(1), standard_chart_basis()[1])
    dc = double_cover_ideal(ch)
    assert dc.k == 0
    assert dc.generators == []
    assert "etale" in dc.notice


@pytest.mark.parametrize("k", [0, 4])
def test_double_cover_interpolates_nothing_at_k0_and_above_3(monkeypatch, k):
    """k is read off the chart first: k = 0 is the etale answer and k > 3
    is refused, with no determinant interpolated in either case."""
    frame, _ = random_graph_lagrangian(random.Random(85 + k), corank=k)
    ch = Chart(frame, unit(1), standard_chart_basis()[1])

    def refuse(*args, **kwargs):
        raise AssertionError("double_cover_ideal interpolated at k = %d" % k)

    monkeypatch.setattr(local_model, "interpolate_poly_map", refuse)
    monkeypatch.setattr(Pencil, "det_poly", refuse)
    if k == 0:
        dc = double_cover_ideal(ch)
        assert (dc.k, dc.generators) == (0, [])
    else:
        with pytest.raises(ValueError, match="kernel dimension <= 3"):
            double_cover_ideal(ch)


def test_double_cover_k1_shape():
    rng = random.Random(81)
    frame, g = random_graph_lagrangian(rng, corank=1)
    ch = Chart(frame, unit(1), standard_chart_basis()[1])
    dc = double_cover_ideal(ch)
    assert dc.k == 1
    assert dc.vars == CHART_VARS + ("xi1",)
    assert len(dc.generators) == 2
    row, fiber = dc.generators
    xi = MultiPoly.var(dc.vars, "xi1")
    # row generator is M_hat_11 * xi1; fiber generator is xi1^2 - 1
    sd = schur_complement(ch)
    lift = {v: MultiPoly.var(dc.vars, v) for v in CHART_VARS}
    assert row == sd.m_hat.entries[0][0].substitute(lift) * xi
    assert fiber == xi * xi - 1


def test_double_cover_k2_quadratic_rank_three():
    ch, kbasis = checks.formstan_instance()
    dc = double_cover_ideal(ch, k_basis=kbasis)
    assert dc.k == 2
    # generators: 2 rows of M_hat xi, then fibers (xi1^2, xi1 xi2, xi2^2)
    assert len(dc.generators) == 5
    fiber_22 = dc.generators[4]   # D xi2^2 - cof(M_hat)_22 = D xi2^2 - M_hat_11
    q2 = homogeneous_part(fiber_22, 2)
    assert quadratic_form_rank(q2) == 3


def test_double_cover_k3_streamed_cofactors(monkeypatch):
    rng = random.Random(84)
    frame, g = random_graph_lagrangian(rng, corank=3)
    ch = Chart(frame, unit(1), standard_chart_basis()[1])
    sides = []

    def counting_det(m, *args, **kwargs):
        sides.append((m.rows, m.cols))
        return det_poly_matrix(m, *args, **kwargs)

    monkeypatch.setattr(local_model, "det_poly_matrix", counting_det)
    dc = double_cover_ideal(ch)
    # one 2x2 minor per cofactor the fibers use (i <= j), not all nine
    assert sides == [(2, 2)] * 6
    assert dc.k == 3
    assert dc.vars == CHART_VARS + ("xi1", "xi2", "xi3")
    assert len(dc.generators) == 3 + 6

    # the full construction: D^2 xi_i xi_j - (adj M_hat)^t_ij, lifted to (t, xi)
    sd = schur_complement(ch)
    lift = lambda p: MultiPoly(dc.vars, {e + (0, 0, 0): c for e, c in p.terms.items()})
    xi = [MultiPoly.var(dc.vars, v) for v in ("xi1", "xi2", "xi3")]
    m = [[lift(p) for p in row] for row in sd.m_hat.entries]
    cof = adjugate_poly_matrix(sd.m_hat).transpose().entries
    d2 = lift(sd.denom) * lift(sd.denom)
    expected = [m[i][0] * xi[0] + m[i][1] * xi[1] + m[i][2] * xi[2] for i in range(3)]
    expected += [d2 * xi[i] * xi[j] - lift(cof[i][j]) for i in range(3) for j in range(i, 3)]
    assert dc.generators == expected


def test_double_cover_scaling_invariance():
    rng = random.Random(83)
    frame, g = random_graph_lagrangian(rng, corank=1)
    ch = Chart(frame, unit(1), standard_chart_basis()[1])
    dc = double_cover_ideal(ch)
    # rescaling xi by a unit maps the generator set into the ideal: for the
    # k=1 shape, xi -> -xi fixes both generators up to sign
    sub = {"xi1": -MultiPoly.var(dc.vars, "xi1")}
    g0 = dc.generators[0].substitute(sub)
    g1 = dc.generators[1].substitute(sub)
    assert g0 == -dc.generators[0]
    assert g1 == dc.generators[1]


# -- chart independence -------------------------------------------------------------

def test_chart_independence_up_to_scalar():
    """Two charts at the same center give local equations matched by the
    projective coordinate change and one global scalar."""
    rng = random.Random(90)
    frame, g = random_graph_lagrangian(rng, corank=1)
    v0 = unit(1)
    c1 = standard_chart_basis()[1]
    while True:
        c2 = [random_vector(rng, 6) for _ in range(5)]
        if rank(linalg.stack([linalg.fvec(v0)], c2)) == 6:
            try:
                ch2 = Chart(frame, v0, c2)
                break
            except ValueError:
                continue
    ch1 = Chart(frame, v0, c1)
    f1 = local_sextic(ch1).f
    f2 = local_sextic(ch2).f
    # express v0 + sum t_a c1_a = lambda(t) (v0 + sum s_b c2_b):
    # solve in the basis (v0, c2): coefficients give lambda and lambda*s
    basis = [linalg.fvec(v0)] + [linalg.fvec(x) for x in c2]
    binv = linalg.inverse(linalg.transpose(basis))
    tvars = CHART_VARS
    lam = MultiPoly.const(tvars, 0)
    s_num = [MultiPoly.const(tvars, 0) for _ in range(5)]
    # coordinates of v0 + sum t_a c1_a in (v0, c2-basis), entries linear in t
    for col, vec in enumerate([v0] + list(c1)):
        coords = linalg.mat_vec(binv, linalg.fvec(vec))
        mono = MultiPoly.const(tvars, 1) if col == 0 else MultiPoly.var(tvars, tvars[col - 1])
        lam = lam + mono * coords[0]
        for b in range(5):
            s_num[b] = s_num[b] + mono * coords[b + 1]
    # pull back f2: lambda^6 f2(s_num / lambda) as a polynomial identity
    pulled = MultiPoly.const(tvars, 0)
    for e, cf in f2.terms.items():
        term = MultiPoly.const(tvars, cf)
        for b, k in enumerate(e):
            for _ in range(k):
                term = term * s_num[b]
        deg = sum(e)
        for _ in range(6 - deg):
            term = term * lam
        pulled = pulled + term
    # proportionality
    assert not pulled.is_zero()
    e, cq = pulled.leading()
    cp = f1.coeff(e)
    assert cp != 0
    assert f1 * (cq / cp) == pulled


# -- plane sextic singularities -------------------------------------------------------

XYZ = ("x", "y", "z")


def P(s):
    return poly_from_text(s, XYZ)


def test_smooth_point_simple():
    f = P("x^6 + y^6 - 2*z^6")
    r = sextic_singularity(f, [1, 1, 1])
    assert r.multiplicity == 1
    assert r.reduced and r.simple


def test_node_of_conic_quartic_product():
    conic = P("x^2 + y^2 - z^2")
    quartic = P("x^3*y + x^4 + x*z^3 - 2*z^4")
    f = conic * quartic
    r = sextic_singularity(f, [1, 0, 1])
    assert r.multiplicity == 2
    assert r.reduced
    assert r.simple


def test_cusp_point_simple():
    f = P("x^3 - y^2*z") * P("x^3 + y^3 + z^3")
    r = sextic_singularity(f, [0, 0, 1])
    assert r.multiplicity == 2
    assert r.simple


def test_triple_line_not_reduced():
    f = P("x")**3 * P("x^3 + y^3 + z^3")
    r = sextic_singularity(f, [0, 1, 0])
    assert r.multiplicity == 3
    assert not r.reduced
    assert not r.simple


def test_reduced_away_from_repeated_factor():
    # x^2 (x y z ... ): repeated line through some points only
    f = P("x")**2 * P("y^4 + x^4 + z^4 - 3*x*y*z^2")
    # the point (0,1,1)... pick a point on the quartic away from x = 0
    quartic = P("y^4 + x^4 + z^4 - 3*x*y*z^2")
    p = [1, 1, 1]  # 1 + 1 + 1 - 3 = 0, on the quartic, off the line x=0
    assert quartic.evaluate(p) == 0
    r = sextic_singularity(f, p)
    assert r.reduced  # the double line does not pass through p
    assert r.multiplicity == 1
    assert r.simple


def test_ordinary_triple_point_simple():
    # multiplicity 3 at (0,0,1) with three distinct tangent lines x, y, x+y
    g = P("x*y") * P("x + y") * P("z^3") - P("x^6 + y^6")
    r = sextic_singularity(g, [0, 0, 1])
    assert r.multiplicity == 3
    assert r.reduced
    assert not r.consecutive_triple
    assert r.simple


def test_consecutive_triple_point_not_simple():
    # x^6 - y^3 z^3 = (x^2 - yz)(x^4 + x^2 yz + y^2 z^2): reduced, but the
    # triple point at (0,0,1) stays triple after one blow-up
    f = P("x^6 - y^3*z^3")
    r = sextic_singularity(f, [0, 0, 1])
    assert r.multiplicity == 3
    assert r.reduced
    assert r.consecutive_triple
    assert not r.simple


def test_sextic_singularity_validates():
    with pytest.raises(ValueError):
        sextic_singularity(P("x^5 + y^5"), [0, 0, 1])
    with pytest.raises(ValueError):
        sextic_singularity(P("x^6 + y^6 - 2*z^6"), [1, 0, 0])
