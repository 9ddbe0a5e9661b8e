"""Exterior algebra, Lagrangian frames, degeneracy and strata predicates."""

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations
import random

import pytest

from epw import linalg, wedge
from epw.linalg import rank, stack
from epw.wedge import (
    DIM, TRIPLES,
    LagrangianFrame, Subspace3, ConstraintError,
    basis_trivector, trivector_from_vectors, symplectic_pairing,
    is_lagrangian, degeneracy_dim, decompose_trivector, theta_contains,
    sigma_level, dual_membership, curve_membership, bscript_membership,
    curve_smooth_at, lagrangian_from_graph_basis, graph_gram,
    lagrangian_containing, standard_chart_basis, random_graph_lagrangian,
    random_symmetric, symmetric_with_kernel, random_vector,
    apply_gl6_frame, _unit, PAIRS5, PAIR5_INDEX, TRIPLES5,
)


def tri(i, j, k):
    return basis_trivector(i - 1, j - 1, k - 1)


def unit(i):
    return _unit(i - 1)


def reference_pencil_gram(g, t):
    """G - sum_a t_a B_a in Fractions, entry by entry from wedge._B5."""
    return [[Fraction(g[i][j]) - sum(Fraction(x) * b[i][j] for x, b in zip(t, wedge._B5))
             for j in range(10)] for i in range(10)]


def vee_wedge_all(v0):
    """v0 ^ Lambda^2 V as a frame (dimension 10)."""
    rows = []
    for i in range(DIM):
        for j in range(i + 1, DIM):
            rows.append(trivector_from_vectors(v0, _unit(i), _unit(j)))
    return linalg.row_basis(rows)


def wedge3_of_span(vectors):
    rows = [trivector_from_vectors(vectors[i], vectors[j], vectors[k])
            for (i, j, k) in combinations(range(len(vectors)), 3)]
    return linalg.row_basis(rows)


# -- symplectic pairing -------------------------------------------------

def test_pairing_complementary_indices():
    assert symplectic_pairing(tri(1, 2, 3), tri(4, 5, 6)) == 1


def test_pairing_repeated_index():
    assert symplectic_pairing(tri(1, 2, 3), tri(1, 2, 4)) == 0


def test_pairing_antisymmetric_sweep():
    rng = random.Random(2)
    for _ in range(50):
        a = [Fraction(rng.randint(-5, 5)) for _ in range(20)]
        b = [Fraction(rng.randint(-5, 5)) for _ in range(20)]
        assert symplectic_pairing(a, b) == -symplectic_pairing(b, a)


def test_trivector_matches_fraction_minors():
    """The integer-scaled minors against the same expansion in Fractions."""
    rng = random.Random(9)
    for _ in range(30):
        u, v, w = ([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(DIM)]
                   for _ in range(3))
        assert trivector_from_vectors(u, v, w) == [
            u[i] * (v[j] * w[k] - v[k] * w[j]) - u[j] * (v[i] * w[k] - v[k] * w[i])
            + u[k] * (v[i] * w[j] - v[j] * w[i]) for (i, j, k) in TRIPLES]


# -- Lagrangian recognition ---------------------------------------------

def test_vee_wedge_is_lagrangian():
    assert is_lagrangian(vee_wedge_all(unit(1)))


def test_wedge3_of_5space_is_lagrangian():
    rows = wedge3_of_span([unit(i) for i in range(1, 6)])
    assert is_lagrangian(rows)


def test_non_isotropic_10_space_rejected():
    # any 10-space containing both e123 and e456 pairs them to 1
    rows = [tri(1, 2, 3), tri(4, 5, 6)]
    for (i, j, k) in TRIPLES:
        if len(rows) == 10:
            break
        cand = basis_trivector(i, j, k)
        if rank(stack(rows, [cand])) > len(rows):
            rows.append(cand)
    assert rank(rows) == 10
    assert not is_lagrangian(rows)


def test_flipped_pairing_sign_rejects_a_graph_frame(monkeypatch):
    """The isotropy check reads the PAIRING Gram, so a wrong sign shows:
    row 0 of the frame has e123 coefficient 1 and another row meets e456."""
    frame, _ = random_graph_lagrangian(random.Random(3))
    LagrangianFrame(frame.matrix)
    flipped = [row[:] for row in wedge.PAIRING]
    flipped[0][19] = -flipped[0][19]
    monkeypatch.setattr(wedge, "PAIRING", flipped)
    with pytest.raises(ValueError, match="not isotropic"):
        LagrangianFrame(frame.matrix)


def test_pairing_is_a_signed_permutation():
    """Each row and each column of PAIRING holds exactly one nonzero, ±1:
    e_I pairs only with its complement, and antisymmetrically."""
    pairing = wedge.PAIRING
    assert len(pairing) == 20 and all(len(row) == 20 for row in pairing)
    for lines in (pairing, list(zip(*pairing))):
        assert all(sorted(map(abs, line)) == [0] * 19 + [1] for line in lines)
    assert all(pairing[i][j] == -pairing[j][i] for i in range(20) for j in range(20))


def reference_isotropic(rows):
    """The pairing vanishes on the rows: every entry of the Fraction Gram
    restrict_gram(PAIRING, rows) is zero."""
    return not any(any(row) for row in linalg.restrict_gram(wedge.PAIRING, rows))


@cache
def isotropy_row_sets():
    """Seeded row sets: graph frames at coranks 0-3, the same frames with
    one entry perturbed, rational combinations of their rows, and sparse
    rational rows."""
    rng = random.Random(2804)

    def rat():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4))

    out = []
    for s in range(80):
        rows = random_graph_lagrangian(rng, corank=s % 4)[0].matrix
        bumped = [row[:] for row in rows]
        bumped[rng.randrange(10)][rng.randrange(20)] += rat() or 1
        mixed = [[sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(20)]
                 for coeffs in ([rat() for _ in rows] for _ in range(rng.randint(1, 4)))]
        sparse = [[rat() if rng.random() < 0.3 else 0 for _ in range(20)]
                  for _ in range(rng.randint(1, 3))]
        out += [("frame", rows), ("perturbed", bumped), ("combined", mixed), ("sparse", sparse)]
    return out


def test_isotropy_matches_the_restrict_gram_route():
    seen = Counter()
    for kind, rows in isotropy_row_sets():
        verdict = wedge._isotropic(rows)
        assert verdict == reference_isotropic(rows), kind
        seen[kind, verdict] += 1
    assert not seen["frame", False] and not seen["combined", False], seen
    assert min(seen["frame", True], seen["combined", True], seen["perturbed", False],
               seen["sparse", True], seen["sparse", False]) >= 10, seen


def test_isotropy_follows_any_signed_permutation_pairing(monkeypatch):
    """Under random signed permutations pi in place of PAIRING, the verdict
    is still that of restrict_gram, which reads the new PAIRING too: on
    the seeded row sets, and on rational rows supported on a set S of
    coordinates that pi carries off itself, which every such pairing
    makes isotropic."""
    rng = random.Random(2805)
    sets = [rows for _, rows in isotropy_row_sets()]
    seen = Counter()
    for _ in range(6):
        order = rng.sample(range(20), 20)
        pairing = [[rng.choice((1, -1)) if j == order[i] else 0 for j in range(20)]
                   for i in range(20)]
        monkeypatch.setattr(wedge, "PAIRING", pairing)
        support = set()
        for i in rng.sample(range(20), 20):
            if order[i] != i and order[i] not in support and i not in map(order.__getitem__, support):
                support.add(i)
        off = [[[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) if j in support else 0
                 for j in range(20)] for _ in range(rng.randint(1, 10))] for _ in range(10)]
        for rows in rng.sample(sets, 20) + off:
            verdict = wedge._isotropic(rows)
            assert verdict == reference_isotropic(rows)
            seen[verdict] += 1
    assert min(seen[True], seen[False]) >= 20, seen


def test_isotropy_rejects_rows_of_the_wrong_length():
    with pytest.raises(ValueError, match="row length"):
        wedge._isotropic([[0] * 19])


# -- degeneracy dimensions ----------------------------------------------

def test_degeneracy_of_vee_wedge_at_center():
    a = LagrangianFrame(vee_wedge_all(unit(1)))
    assert degeneracy_dim(a, unit(1)) == 10


def test_degeneracy_wedge3_at_inside_and_outside_points():
    a = LagrangianFrame(wedge3_of_span([unit(i) for i in range(1, 6)]))
    assert degeneracy_dim(a, unit(1)) == 6   # e1 ^ Λ²(e2..e5): C(4,2)
    assert degeneracy_dim(a, unit(6)) == 0


def test_degeneracy_projective_invariance():
    rng = random.Random(8)
    frame, _ = random_graph_lagrangian(rng, corank=1)
    v = random_vector(rng, 6, nonzero=True)
    k = degeneracy_dim(frame, v)
    assert degeneracy_dim(frame, [Fraction(3, 7) * x for x in v]) == k


def test_degeneracy_zero_vector_rejected():
    a = LagrangianFrame(vee_wedge_all(unit(1)))
    with pytest.raises(ValueError):
        degeneracy_dim(a, [0] * 6)


# -- decomposable trivectors ---------------------------------------------

def test_decompose_basis_trivector():
    w = decompose_trivector(tri(1, 2, 3))
    assert w is not None
    assert w.contains_vector(unit(1)) and w.contains_vector(unit(2)) \
        and w.contains_vector(unit(3))


def test_decompose_sum_is_not_decomposable():
    t = [x + y for x, y in zip(tri(1, 2, 3), tri(4, 5, 6))]
    assert decompose_trivector(t) is None


def test_decompose_shifted_plane():
    v = [x + y for x, y in zip(unit(1), unit(4))]
    t = trivector_from_vectors(v, unit(2), unit(3))
    w = decompose_trivector(t)
    assert w is not None
    assert w.contains_vector(v)
    assert w.contains_vector(unit(2))
    # round trip: the top wedge reproduces t up to scalar
    assert rank([w.top_wedge(), t]) == 1


# -- sigma levels --------------------------------------------------------

def test_sigma_level_wedge3_instance():
    a = LagrangianFrame(wedge3_of_span([unit(i) for i in range(1, 6)]))
    w = Subspace3([unit(1), unit(2), unit(3)])
    theta, level = sigma_level(a, w)
    assert theta is True
    assert level == 7  # e12k, e13k, e23k (k in 4,5) plus e123


def test_sigma_level_graph_without_plane():
    rng = random.Random(21)
    frame, _ = random_graph_lagrangian(rng)  # nondegenerate: no Theta plane at e1
    w = Subspace3([unit(1), unit(2), unit(3)])
    theta, level = sigma_level(frame, w)
    assert theta is False


def test_theta_containment_fails_by_construction():
    a = LagrangianFrame(vee_wedge_all(unit(1)))
    w = Subspace3([unit(4), unit(5), unit(6)])
    assert not theta_contains(a, w)


# -- graph Lagrangians ----------------------------------------------------

def test_zero_graph_is_vee_wedge():
    v0, c = standard_chart_basis()
    a = lagrangian_from_graph_basis(v0, c, [[0] * 10 for _ in range(10)])
    assert a == LagrangianFrame(vee_wedge_all(v0))


def test_graph_is_lagrangian_and_round_trips():
    rng = random.Random(4)
    v0, c = standard_chart_basis()
    for _ in range(5):
        g = random_symmetric(rng, 10)
        a = lagrangian_from_graph_basis(v0, c, g)
        assert is_lagrangian(a.matrix)
        assert graph_gram(a, v0, c) == g


def test_graph_from_chart_wrapper():
    from epw.local_model import Chart
    from epw.wedge import lagrangian_from_graph
    rng = random.Random(44)
    frame, g = random_graph_lagrangian(rng)
    v0, c = standard_chart_basis()
    chart = Chart(frame, v0, c)
    rebuilt = lagrangian_from_graph(chart, chart.form.gram)
    assert rebuilt == frame


def test_graph_round_trip_nonstandard_chart():
    rng = random.Random(14)
    v0 = [1, 2, 0, -1, 0, 3]
    while True:
        c = [random_vector(rng, 6) for _ in range(5)]
        if rank(stack([linalg.fvec(v0)], c)) == 6:
            break
    g = random_symmetric(rng, 10)
    a = lagrangian_from_graph_basis(v0, c, g)
    assert is_lagrangian(a.matrix)
    assert graph_gram(a, v0, c) == g


def mat_mul(a, b):
    """Dense Fraction matrix product, the reference arithmetic."""
    bt = linalg.transpose(b)
    return [[sum(x * y for x, y in zip(ra, cb)) for cb in bt] for ra in a]


def dense_chart_pairing():
    """P[k][j] = vol0(gamma_k ^ beta_j) as a dense 10x10 matrix: the
    coefficient of e1^...^e5 in the 5-vector e_TRIPLES5[k] ^ e_PAIRS5[j]."""
    return [[wedge.perm_sign(t + p) for p in PAIRS5] for t in TRIPLES5]


def graph_gram_reference(a, v0, c):
    """Fraction extraction: invert the 20x20 chart basis, then X."""
    v0, c = linalg.fvec(v0), linalg.fmat(c)
    first = [trivector_from_vectors(v0, c[p], c[q]) for (p, q) in PAIRS5]
    second = [trivector_from_vectors(c[i], c[j], c[k]) for (i, j, k) in TRIPLES5]
    minv = linalg.inverse(linalg.transpose(stack(first, second)))
    coords = [linalg.mat_vec(minv, row) for row in a.matrix]
    x = [row[:10] for row in coords]
    y = [row[10:] for row in coords]
    return mat_mul(mat_mul(linalg.inverse(x), y), dense_chart_pairing())


def graph_reference(v0, c, g):
    """Fraction graph map: row i is first_i + sum_k T[i][k] second_k with
    T = G P^t, for the dense pairing matrix P."""
    v0, c, g = linalg.fvec(v0), linalg.fmat(c), linalg.fmat(g)
    first = [trivector_from_vectors(v0, c[p], c[q]) for (p, q) in PAIRS5]
    second = [trivector_from_vectors(c[i], c[j], c[k]) for (i, j, k) in TRIPLES5]
    t = mat_mul(g, linalg.transpose(dense_chart_pairing()))
    return LagrangianFrame([[x + y for x, y in zip(f, r)]
                            for f, r in zip(first, mat_mul(t, second))])


def _graph_case(rng, n):
    """Case n of the graph-map comparison: corank n % 4; the standard chart
    for even n, otherwise a random one, rational when n % 3 == 0; a
    rational Gram when n % 5 < 2."""
    k = n % 4
    if k == 0:
        g = random_symmetric(rng, 10, invertible=True)
    else:
        g = symmetric_with_kernel(rng, 10, [random_vector(rng, 10) for _ in range(k)])
    if n % 5 < 2:
        g = [[Fraction(x, n % 7 + 2) for x in row] for row in g]
    if n % 2 == 0:
        v0, c = standard_chart_basis()
        return v0, c, g
    while True:
        v0 = random_vector(rng, 6, nonzero=True)
        c = [random_vector(rng, 6) for _ in range(5)]
        if n % 3 == 0:
            c[1] = [Fraction(x, 3) for x in c[1]]
            v0 = [Fraction(x, 5) for x in v0]
        if rank(stack([v0], c)) == 6:
            return v0, c, g


def test_graph_map_matches_fraction_reference():
    rng = random.Random(27)
    for n in range(40):
        v0, c, g = _graph_case(rng, n)
        a = lagrangian_from_graph_basis(v0, c, g)
        assert a == graph_reference(v0, c, g)
        assert degeneracy_dim(a, v0) == n % 4


def test_graph_gram_matches_fraction_reference():
    """Seeded graph frames of corank 0-3 read in 20 random charts, some of
    them with rational entries."""
    rng = random.Random(21)
    for n in range(20):
        frame, _ = random_graph_lagrangian(rng, corank=n % 4)
        while True:
            v0 = random_vector(rng, 6, nonzero=True)
            c = [random_vector(rng, 6) for _ in range(5)]
            if n % 3 == 0:
                c[0] = [Fraction(x, 7) for x in c[0]]
            if rank(stack([v0], c)) == 6:
                break
        assert graph_gram(frame, v0, c) == graph_gram_reference(frame, v0, c)


@pytest.mark.parametrize("k", [0, 9])
def test_flipped_chart_pairing_sign_breaks_isotropy(monkeypatch, k):
    """A round trip reads the same _P5 both ways, so only the isotropy
    check sees a wrong sign: every random symmetric Gram is rejected."""
    flipped = list(wedge._P5)
    j, sign = flipped[k]
    flipped[k] = (j, -sign)
    monkeypatch.setattr(wedge, "_P5", flipped)
    rng = random.Random(8)
    for n in range(10):
        v0, c = standard_chart_basis()
        while n % 2:
            v0 = random_vector(rng, 6, nonzero=True)
            c = [random_vector(rng, 6) for _ in range(5)]
            if rank(stack([v0], c)) == 6:
                break
        with pytest.raises(ValueError, match="not isotropic"):
            lagrangian_from_graph_basis(v0, c, random_symmetric(rng, 10))


def test_graph_needs_a_spanning_chart():
    with pytest.raises(ValueError, match="do not span V"):
        lagrangian_from_graph_basis(unit(1), [unit(1), unit(3), unit(4), unit(5), unit(6)],
                                    [[0] * 10 for _ in range(10)])


@pytest.mark.parametrize("which", [0, 1, 5])
@pytest.mark.parametrize("length", [5, 7])
def test_chart_vectors_of_the_wrong_length_rejected(which, length):
    v0, c = standard_chart_basis()
    vectors = [list(v0)] + [list(x) for x in c]
    vectors[which] = (vectors[which] + [Fraction(0)])[:length]
    v0, c = vectors[0], vectors[1:]
    frame, g = random_graph_lagrangian(random.Random(which), corank=0)
    with pytest.raises(ValueError, match="6 coordinates"):
        wedge.chart_trivectors(v0, c)
    with pytest.raises(ValueError, match="6 coordinates"):
        graph_gram(frame, v0, c)
    with pytest.raises(ValueError, match="6 coordinates"):
        lagrangian_from_graph_basis(v0, c, g)


def test_graph_degeneracy_equals_corank():
    rng = random.Random(10)
    for corank in (0, 1, 2, 3):
        frame, g = random_graph_lagrangian(rng, corank=corank)
        assert degeneracy_dim(frame, unit(1)) == corank
        assert 10 - rank(g) == corank


def test_symmetric_with_kernel_has_exactly_the_requested_kernel():
    rng = random.Random(19)
    for n, k in [(2, 1), (4, 2), (6, 3), (10, 1), (10, 3), (3, 3)]:
        rows = [random_vector(rng, n) for _ in range(k)]
        rows.append([2 * x for x in rows[0]])   # the kernel is span(rows)
        g = symmetric_with_kernel(rng, n, rows)
        assert len(g) == n and linalg.is_symmetric(g)
        assert linalg.row_basis(linalg.nullspace(g)) == linalg.row_basis(rows)


# The Fraction samplers before the integer draws: every entry a Fraction,
# the kernel's annihilator from row_basis and nullspace, C^t S C by
# restrict_gram.


def reference_random_symmetric(rng, n, invertible=False):
    while True:
        g = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = Fraction(rng.randint(-wedge.COEFF_BOX, wedge.COEFF_BOX))
        if not invertible or rank(g) == n:
            return g


def reference_random_vector(rng, n, nonzero=False):
    while True:
        v = [Fraction(rng.randint(-wedge.COEFF_BOX, wedge.COEFF_BOX)) for _ in range(n)]
        if not nonzero or any(x != 0 for x in v):
            return v


def reference_symmetric_with_kernel(rng, n, kernel_rows):
    k = linalg.row_basis(linalg.fmat(kernel_rows))
    if not k:
        return reference_random_symmetric(rng, n, invertible=True)
    ann = linalg.nullspace(k)
    smat = reference_random_symmetric(rng, n - len(k), invertible=True)
    return linalg.restrict_gram(smat, [[row[i] for row in ann] for i in range(n)])


def test_samplers_draw_what_the_fraction_samplers_drew():
    """On 1200 seeds, random_symmetric, random_vector and
    symmetric_with_kernel (kernel rows of ints or Fractions, dependent or
    zero, of rank 0 to n) give the values of the Fraction samplers and
    leave the generator in the same state; the first two give ints, the
    third ints exactly when the annihilator basis has no denominator."""
    kinds = set()
    for seed in range(1200):
        n = 1 + seed % 8
        new, old = random.Random(seed), random.Random(seed)
        invertible = seed % 3 == 0
        g = random_symmetric(new, n, invertible)
        assert g == reference_random_symmetric(old, n, invertible)
        assert all(type(x) is int for row in g for x in row)
        v = random_vector(new, n, nonzero=seed % 2 == 0)
        assert v == reference_random_vector(old, n, nonzero=seed % 2 == 0)
        assert all(type(x) is int for x in v)
        assert new.getstate() == old.getstate()
        rows = [random_vector(new, n) for _ in range(seed % (n + 1))]
        assert rows == [reference_random_vector(old, n) for _ in rows]
        if seed % 5 == 1 and rows:
            rows.append([Fraction(x, 3) for x in rows[0]])
        if seed % 7 == 2:
            rows.append([0] * n)
        kernel = symmetric_with_kernel(new, n, rows)
        assert kernel == reference_symmetric_with_kernel(old, n, rows)
        assert new.getstate() == old.getstate()
        ints = all(type(x) is int for row in kernel for x in row)
        assert ints or all(type(x) is Fraction for row in kernel for x in row)
        assert ints == all(x.denominator == 1 for w in linalg.nullspace(rows) for x in w)
        kinds.add((ints, rank(rows) if rows else 0))
    assert {ints for ints, _ in kinds} == {True, False} and {r for _, r in kinds} == set(range(9))


def test_nonsymmetric_gram_rejected():
    v0, c = standard_chart_basis()
    g = [[Fraction(0)] * 10 for _ in range(10)]
    g[0][1] = Fraction(1)
    with pytest.raises(ValueError):
        lagrangian_from_graph_basis(v0, c, g)


@pytest.mark.parametrize("side", [9, 11])
def test_gram_of_the_wrong_side_rejected(side):
    v0, c = standard_chart_basis()
    g = random_symmetric(random.Random(side), side)
    with pytest.raises(ValueError):
        lagrangian_from_graph_basis(v0, c, g)


def test_degeneracy_matches_gram_corank_at_moved_point():
    """Cross-validation: the 20-dim rank computation against the corank of
    the 10x10 pencil Gram at chart points, including degenerate ones."""
    rng = random.Random(33)
    frame, g = random_graph_lagrangian(rng)
    v0, c = standard_chart_basis()
    for _ in range(4):
        t = [Fraction(rng.randint(-3, 3)) for _ in range(5)]
        point = list(v0)
        for a in range(5):
            point = [x + t[a] * y for x, y in zip(point, c[a])]
        total = reference_pencil_gram(g, t)
        assert degeneracy_dim(frame, point) == 10 - rank(total)
    # non-vacuous part: plane points of a Theta instance have corank >= 1
    a = lagrangian_containing(W123, level=1, seed=23)
    from epw.wedge import graph_gram
    g2 = graph_gram(a, v0, c)
    hits = 0
    for lam in range(-3, 4):
        # chart coordinates of the plane point e1 + lam e2: t = (lam,0,0,0,0)
        t = [Fraction(lam), 0, 0, 0, 0]
        point = [x + t[0] * y for x, y in zip(v0, c[0])]
        total = reference_pencil_gram(g2, t)
        k = degeneracy_dim(a, point)
        assert k == 10 - rank(total)
        if k >= 1:
            hits += 1
    assert hits == 7  # every point of the line lies on the plane


# -- GL(6) transport -------------------------------------------------------

def test_gl6_transport_preserves_lagrangian_and_levels():
    rng = random.Random(12)
    w = Subspace3([unit(1), unit(2), unit(3)])
    a = lagrangian_containing(w, level=2, seed=5)
    g6 = [[Fraction(rng.randint(-2, 2)) for _ in range(6)] for _ in range(6)]
    g6[0][0] += 1  # nudge towards invertibility
    while rank(g6) < 6:
        g6[rng.randrange(6)][rng.randrange(6)] += 1
    b = apply_gl6_frame(g6, a)
    wimg = Subspace3([linalg.mat_vec(linalg.transpose(g6), r) for r in w.rows])
    assert is_lagrangian(b.matrix)
    assert sigma_level(b, wimg) == sigma_level(a, w)


# -- dual membership --------------------------------------------------------

def test_dual_membership_top_wedge():
    e = [unit(i) for i in range(1, 6)]
    a = LagrangianFrame(wedge3_of_span(e))
    assert dual_membership(a, e) is True


def test_dual_membership_direct_sum_avoidance():
    a = LagrangianFrame(vee_wedge_all(unit(6)))
    e = [unit(i) for i in range(1, 6)]
    assert dual_membership(a, e) is False


def test_dual_membership_matches_rank_oracle():
    rng = random.Random(19)
    for _ in range(6):
        frame, _ = random_graph_lagrangian(rng)
        e = [random_vector(rng, 6) for _ in range(5)]
        if rank(e) != 5:
            continue
        tri_rows = wedge3_of_span(linalg.row_basis(e))
        oracle = rank(stack(frame.matrix, tri_rows)) < 10 + len(tri_rows)
        assert dual_membership(frame, e) == oracle


def test_dual_membership_rank_check():
    a = LagrangianFrame(vee_wedge_all(unit(1)))
    with pytest.raises(ValueError):
        dual_membership(a, [unit(1), unit(2), unit(3), unit(4),
                            [x + y for x, y in zip(unit(1), unit(2))]])


# -- samplers and strata predicates -----------------------------------------

W123 = Subspace3([unit(1), unit(2), unit(3)])


@pytest.mark.parametrize("level", [1, 2, 3])
def test_lagrangian_containing_levels(level):
    a = lagrangian_containing(W123, level=level, seed=level)
    assert sigma_level(a, W123) == (True, level)


def test_lagrangian_containing_extra_theta():
    wp = Subspace3([unit(1), unit(4), unit(5)])
    a = lagrangian_containing(W123, level=1, extra_theta=[wp], seed=3)
    assert theta_contains(a, W123)
    assert theta_contains(a, wp)
    theta, level = sigma_level(a, W123)
    assert theta and level == 1


def test_lagrangian_containing_rejects_two_extras():
    wp = Subspace3([unit(1), unit(4), unit(5)])
    wq = Subspace3([unit(1), unit(4), unit(6)])
    with pytest.raises(ConstraintError):
        lagrangian_containing(W123, level=1, extra_theta=[wp, wq], seed=0)


def test_plane_inside_degeneracy_locus():
    # Theta containment forces degeneracy >= 1 along the whole plane
    a = lagrangian_containing(W123, level=1, seed=7)
    rng = random.Random(0)
    for _ in range(10):
        w = [Fraction(0)] * 6
        while all(x == 0 for x in w):
            coeffs = [rng.randint(-4, 4) for _ in range(3)]
            w = [sum(Fraction(coeffs[t]) * W123.rows[t][i] for t in range(3))
                 for i in range(6)]
        assert degeneracy_dim(a, w) >= 1


def test_curve_membership_generic_direction_false():
    a = lagrangian_containing(W123, level=1, seed=11)
    hits = 0
    for lam in range(0, 12):
        w = [x + lam * y for x, y in zip(unit(1), unit(2))]
        if curve_membership(a, W123, w):
            hits += 1
    assert hits <= 6  # the curve meets a line in at most deg-6-many points


def test_curve_membership_known_point():
    a = LagrangianFrame(wedge3_of_span([unit(i) for i in range(1, 6)]))
    assert curve_membership(a, W123, unit(1)) is True  # dim 6 >= 2
    w = [Fraction(5) * x for x in unit(1)]
    assert curve_membership(a, W123, w) is True  # projective invariance


def test_curve_membership_validates_inputs():
    a = lagrangian_containing(W123, level=1, seed=2)
    with pytest.raises(ValueError):
        curve_membership(a, W123, unit(6))


def _two_theta_instance():
    wp = Subspace3([unit(1), unit(4), unit(5)])
    a = lagrangian_containing(W123, level=1, extra_theta=[wp], seed=9)
    return a, wp


def test_bscript_clause1_two_theta():
    a, wp = _two_theta_instance()
    # w in W ∩ W' = <e1>
    assert bscript_membership(a, W123, [wp], unit(1)) is True


def test_bscript_generic_single_theta_false():
    a = lagrangian_containing(W123, level=1, seed=13)
    w = [x + 2 * y + 3 * z for x, y, z in zip(unit(1), unit(2), unit(3))]
    assert bscript_membership(a, W123, [], w) is False


def test_bscript_clause2_engineered():
    """A with two kernel directions inside the first-seven block at e1:
    the triple intersection at e1 is then 2-dimensional."""
    rng = random.Random(31)
    v0, c = standard_chart_basis()
    idx2 = PAIR5_INDEX[(0, 1)]  # c1 ^ c2  (bivector e2 ^ e3)
    idx3 = PAIR5_INDEX[(0, 2)]  # c1 ^ c3  (bivector e2 ^ e4)
    kernel = [[Fraction(int(i == idx2)) for i in range(10)],
              [Fraction(int(i == idx3)) for i in range(10)]]
    g = symmetric_with_kernel(rng, 10, kernel)
    a = lagrangian_from_graph_basis(v0, c, g)
    w = Subspace3([unit(1), unit(2), unit(3)])
    assert theta_contains(a, w)
    assert degeneracy_dim(a, unit(1)) == 2
    assert bscript_membership(a, w, [], unit(1)) is True


def test_curve_smooth_at_engineered_point():
    """Second degenerate point on the plane: e2 has degeneracy exactly 2 and
    sits off the bad locus, so the curve is smooth there."""
    rng = random.Random(41)
    v0, c = standard_chart_basis()  # v0 = e1, c1..c5 = e2..e6
    for _ in range(40):
        g = [[Fraction(0)] * 10 for _ in range(10)]
        base = random_symmetric(rng, 10)
        for i in range(10):
            for j in range(10):
                g[i][j] = base[i][j]
        for t in range(10):
            g[0][t] = g[t][0] = Fraction(0)  # Lambda^3 W inside A
        # force q(c1 ^ c3..) block so that e2 gets one extra degeneracy:
        # rows of pairs (0,1),(0,2),(0,3) columns (0,1),(0,2),(0,3) vanish
        for i in (1,):
            for j in (0, 1, 2, 3):
                g[i][j] = g[j][i] = Fraction(0)
        a = lagrangian_from_graph_basis(v0, c, g)
        if degeneracy_dim(a, unit(2)) != 2:
            continue
        if degeneracy_dim(a, unit(1)) != 1:
            continue
        if sigma_level(a, W123) != (True, 1):
            continue
        assert curve_membership(a, W123, unit(2)) is True
        assert curve_smooth_at(a, W123, [], unit(2)) is True
        # first condition fails at the chart center (degeneracy 1 there)
        assert curve_smooth_at(a, W123, [], unit(1)) is False
        return
    pytest.fail("no engineered smooth curve point found")


def test_curve_smooth_at_fails_on_bscript_point():
    rng = random.Random(31)
    v0, c = standard_chart_basis()
    idx2 = PAIR5_INDEX[(0, 1)]
    idx3 = PAIR5_INDEX[(0, 2)]
    kernel = [[Fraction(int(i == idx2)) for i in range(10)],
              [Fraction(int(i == idx3)) for i in range(10)]]
    g = symmetric_with_kernel(rng, 10, kernel)
    a = lagrangian_from_graph_basis(v0, c, g)
    # degeneracy 2 at e1, but e1 lies in the bad locus via the engineered
    # 2-dimensional triple intersection
    assert degeneracy_dim(a, unit(1)) == 2
    assert curve_smooth_at(a, W123, [], unit(1)) is False


def test_strata_ledger_fails_when_dual_membership_is_false(monkeypatch):
    from epw import checks, wedge

    assert checks.check_strata_predicates().ok
    monkeypatch.setattr(wedge, "dual_membership", lambda frame, e_rows: False)
    res = checks.check_strata_predicates()
    assert not res.ok and res.detail == "dual-membership-generic-5space"


def test_sampler_coefficient_is_randint_over_the_box():
    """_rand_coeff draws what randint(-COEFF_BOX, COEFF_BOX) draws, 10^5
    times on each of several seeds, and leaves the generator in the same
    state."""
    box = wedge.COEFF_BOX
    for seed in (0, 1, 7, 2024):
        new, old = random.Random(seed), random.Random(seed)
        draws = [wedge._rand_coeff(new) for _ in range(10 ** 5)]
        assert draws == [old.randint(-box, box) for _ in range(10 ** 5)]
        assert new.getstate() == old.getstate()
        assert set(draws) == set(range(-box, box + 1))


def test_scaled_symmetric_with_kernel_is_the_draw_times_its_scale():
    """(D^2, rows) from the randomness of symmetric_with_kernel: rows of
    ints equal to D^2 times its draw, D^2 = 1 when the draw is of ints."""
    for seed in range(300):
        n = 1 + seed % 7
        new, old = random.Random(seed), random.Random(seed)
        rows = [random_vector(new, n) for _ in range(seed % (n + 1))]
        assert rows == [random_vector(old, n) for _ in rows]
        den, scaled = wedge.scaled_symmetric_with_kernel(new, n, rows)
        g = symmetric_with_kernel(old, n, rows)
        assert new.getstate() == old.getstate()
        assert all(type(x) is int for row in scaled for x in row)
        assert [[Fraction(x, den) for x in row] for row in scaled] == g
        assert den == 1 or any(type(x) is Fraction for row in g for x in row)
