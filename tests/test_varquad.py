"""Dual forms, wedge powers, corank duality and the graded determinant."""

from fractions import Fraction
from math import prod
import random

from hypothesis import given, settings, strategies as st
import pytest

from epw import linalg
from epw.linalg import rank
from epw.poly import MultiPoly
from epw.polymat import Pencil, PolyMatrix, det_bareiss
from epw.varquad import (
    QuadSpace, PencilFamily, cork_restrict, dual_form, ann_of_span,
    wedge_power_form, decomposable_coords, phi_expansion, phi2_rank,
    degenerate_cone_check, vanishing_kernel_check,
)
from epw.wedge import random_symmetric, symmetric_with_kernel, random_vector
from epw.zlinalg import bareiss_solve


def diag(*entries):
    n = len(entries)
    return [[Fraction(entries[i]) if i == j else Fraction(0) for j in range(n)]
            for i in range(n)]


def rand_sym_ints(rng, n):
    return random_symmetric(rng, n)


# -- cork_restrict ---------------------------------------------------------

def test_cork_restrict_nondegenerate_line():
    q = QuadSpace(diag(1, 1))
    assert cork_restrict(q, [[1, 0]]) == 0


def test_cork_restrict_isotropic_line():
    q = QuadSpace([[0, 1], [1, 0]])
    assert cork_restrict(q, [[1, 0]]) == 1


def test_cork_restrict_matches_rank_nullity():
    rng = random.Random(7)
    for _ in range(30):
        d = rng.randint(2, 6)
        q = QuadSpace(rand_sym_ints(rng, d))
        k = rng.randint(1, d)
        s = [random_vector(rng, d) for _ in range(k)]
        basis = linalg.row_basis(s)
        if not basis:
            continue
        g = linalg.restrict_gram(q.gram, basis)
        assert cork_restrict(q, s) == len(basis) - rank(g)


# -- dual form --------------------------------------------------------------

def test_dual_form_diagonal_inverse():
    q = QuadSpace(diag(2, 3))
    d = dual_form(q)
    assert d.gram == [[Fraction(1, 2), 0], [0, Fraction(1, 3)]]


def test_dual_form_with_kernel():
    q = QuadSpace(diag(0, 1))
    d = dual_form(q)
    assert len(d.gram) == 1
    assert d.gram[0][0] == 1


def test_corank_duality_sweep():
    """cork(q|_S) = cork(q_dual |_{Ann S}) for nondegenerate q."""
    rng = random.Random(13)
    cases = 0
    while cases < 200:
        d = rng.randint(2, 8)
        g = rand_sym_ints(rng, d)
        if rank(g) != d:
            continue
        q = QuadSpace(g)
        dual = dual_form(q)
        k = rng.randint(1, d - 1)
        s = linalg.row_basis([random_vector(rng, d) for _ in range(k)])
        if not s:
            continue
        lhs = cork_restrict(q, s)
        rhs = dual.corank_on(ann_of_span(s, d))
        assert lhs == rhs
        cases += 1


# -- wedge powers -------------------------------------------------------------

def test_wedge_power_diagonal():
    q = QuadSpace(diag(2, 3, 5))
    w = wedge_power_form(q, 2)
    assert w.gram == diag(6, 10, 15)


def test_wedge_power_top_is_det():
    rng = random.Random(3)
    g = rand_sym_ints(rng, 4)
    q = QuadSpace(g)
    top = wedge_power_form(q, 4)
    assert top.dim == 1
    assert top.gram[0][0] == linalg.det(g)


def test_wedge_power_on_decomposables_matches_restricted_gram():
    rng = random.Random(23)
    for _ in range(20):
        d = rng.randint(3, 6)
        i = rng.randint(2, d - 1)
        q = QuadSpace(rand_sym_ints(rng, d))
        vecs = [random_vector(rng, d) for _ in range(i)]
        if rank(vecs) != i:
            continue
        coords = decomposable_coords(vecs, d)
        w = wedge_power_form(q, i)
        val = w.value(coords)
        direct = linalg.det(linalg.restrict_gram(q.gram, linalg.fmat(vecs)))
        assert val == direct


# -- graded determinant expansion ----------------------------------------------

def rand_pencil(rng, d, m, base=None, kill_kernel_of=None):
    if base is None:
        base = rand_sym_ints(rng, d)
    coeffs = []
    for _ in range(m):
        b = rand_sym_ints(rng, d)
        if kill_kernel_of is not None:
            kern = linalg.nullspace(kill_kernel_of)
            # project the form so it vanishes on the kernel block
            ann = linalg.nullspace(kern) if kern else linalg.identity(d)
            b = linalg.restrict_gram(linalg.restrict_gram(b, ann), linalg.transpose(ann))
        coeffs.append(b)
    return PencilFamily(QuadSpace(base), coeffs)


def test_phi_expansion_reassembles_determinant():
    rng = random.Random(5)
    fam = rand_pencil(rng, 4, 2)
    phis = phi_expansion(fam)
    total = phis[0]
    for p in phis[1:]:
        total = total + p
    assert total == det_bareiss(fam.pencil.poly_matrix(fam.varnames))


def test_degenerate_cone_example_d3():
    # base diag(0,1,1), family spanned by the form xy
    base = QuadSpace(diag(0, 1, 1))
    b = [[Fraction(0), Fraction(1, 2), Fraction(0)],
         [Fraction(1, 2), Fraction(0), Fraction(0)],
         [Fraction(0), Fraction(0), Fraction(0)]]
    fam = PencilFamily(base, [b])
    phis = phi_expansion(fam)
    # det(q_* + t q) = -t^2/4
    assert phis[0].is_zero()
    assert phis[2].coeff((2,)) == Fraction(-1, 4)
    lhs, rhs, equal = phi2_rank(fam)
    assert (lhs, rhs, equal) == (1, 1, True)


def test_degenerate_cone_random_sweep():
    rng = random.Random(77)
    cases = 0
    while cases < 60:
        d = rng.randint(2, 6)
        k = rng.randint(0, min(3, d - 1))
        if k:
            kern = [random_vector(rng, d) for _ in range(k)]
            if rank(kern) != k:
                continue
            base = symmetric_with_kernel(rng, d, kern)
        else:
            base = rand_sym_ints(rng, d)
            if rank(base) != d:
                continue
        m = rng.randint(1, 3)
        fam = PencilFamily(QuadSpace(base), [rand_sym_ints(rng, d) for _ in range(m)])
        ok, c, _ = degenerate_cone_check(fam)
        assert ok and (c is None or c != 0)
        cases += 1


def test_vanishing_kernel_example_and_sweep():
    rng = random.Random(55)
    cases = 0
    while cases < 40:
        d = rng.randint(3, 6)
        k = rng.randint(1, min(2, d - 2))
        # base with kernel the last k coordinates
        s = rand_sym_ints(rng, d - k)
        if rank(s) != d - k:
            continue
        base = [[Fraction(0)] * d for _ in range(d)]
        for i in range(d - k):
            for j in range(d - k):
                base[i][j] = s[i][j]
        coeffs = []
        for _ in range(rng.randint(1, 2)):
            b = rand_sym_ints(rng, d)
            for i in range(d - k, d):
                for j in range(d - k, d):
                    b[i][j] = Fraction(0)   # vanish on the kernel
            coeffs.append(b)
        fam = PencilFamily(QuadSpace(base), coeffs)
        ok, c, phis = vanishing_kernel_check(fam)
        assert ok and (c is None or c != 0)
        cases += 1


def test_vanishing_kernel_rejects_bad_family():
    base = QuadSpace(diag(1, 0))
    b = diag(0, 1)   # does not vanish on the kernel
    fam = PencilFamily(base, [b])
    with pytest.raises(ValueError):
        vanishing_kernel_check(fam)


def test_vanishing_kernel_rejects_a_cross_term_on_the_kernel():
    base = QuadSpace(diag(1, 0, 0))
    b = [[0, 0, 0], [0, 0, 1], [0, 1, 0]]   # q(e2) = q(e3) = 0, b(e2, e3) = 1
    with pytest.raises(ValueError, match="does not vanish"):
        vanishing_kernel_check(PencilFamily(base, [b]))


def test_value_and_pairing_reject_a_vector_of_the_wrong_length():
    q = QuadSpace(diag(1, 2, 3))
    assert q.value([1, 1, 0]) == 3 and q.pairing([1, 1, 0], ["1/2", 0, 1]) == Fraction(1, 2)
    for v in ([1, 1], [1, 1, 1, 1]):
        with pytest.raises(ValueError):
            q.value(v)
        with pytest.raises(ValueError):
            q.pairing([1, 0, 0], v)


def test_corank_duality_rejects_a_vector_of_the_wrong_length():
    q = QuadSpace(diag(1, 2, 3))
    assert cork_restrict(q, [[1, "1/2", 0]]) == 0 and dual_form(q).corank_on([[0, 1, 0]]) == 0
    for v in ([1, 1], [1, 1, 1, 1]):
        with pytest.raises(ValueError, match="length"):
            cork_restrict(q, [[1, 0, 0], v])
        with pytest.raises(ValueError, match="length"):
            dual_form(q).corank_on([v])


@pytest.mark.parametrize("bad", [5, "12", [5], [[1, 0], 1], None])
def test_quad_space_and_family_refuse_a_matrix_that_is_not_rows(bad):
    with pytest.raises(ValueError, match="list of rows"):
        QuadSpace(bad)
    with pytest.raises(ValueError, match="list of rows"):
        PencilFamily(QuadSpace(diag(1, 0)), [diag(0, 1), bad])


# -- phi2 rank formula ----------------------------------------------------------

def test_phi2_rank_empty_family():
    base = QuadSpace(diag(0, 1, 1))
    fam = PencilFamily(base, [])
    lhs, rhs, equal = phi2_rank(fam)
    assert (lhs, rhs, equal) == (0, 0, True)


def test_phi2_rank_requires_corank_one():
    fam = PencilFamily(QuadSpace(diag(1, 1)), [diag(1, 0)])
    with pytest.raises(ValueError):
        phi2_rank(fam)


def test_phi2_rank_requires_kernel_killed():
    fam = PencilFamily(QuadSpace(diag(0, 1)), [diag(1, 0)])
    with pytest.raises(ValueError):
        phi2_rank(fam)


def test_phi2_rank_random_sweep():
    rng = random.Random(101)
    cases = 0
    while cases < 200:
        d = rng.randint(2, 6)
        e = random_vector(rng, d, nonzero=True)
        base = symmetric_with_kernel(rng, d, [e])
        m = rng.randint(1, 3)
        coeffs = []
        for _ in range(m):
            b = rand_sym_ints(rng, d)
            # correct b so that q(e) = 0: subtract q(e)/ (e.g1)^2-scaled dyad
            val = sum(e[i] * b[i][j] * e[j] for i in range(d) for j in range(d))
            if val != 0:
                # find a diagonal position to fix with e_i != 0
                i = next(t for t in range(d) if e[t] != 0)
                b[i][i] -= Fraction(val, e[i] * e[i])
            coeffs.append(b)
        fam = PencilFamily(QuadSpace(base), coeffs)
        lhs, rhs, equal = phi2_rank(fam)
        assert equal, "rank formula failed: %d vs %d" % (lhs, rhs)
        cases += 1


# -- graded parts ---------------------------------------------------------------

def graded_family(rng, m):
    """A family with m moves on Q^n, n <= 5, whose base is invertible,
    singular, rational with mixed denominators, or has zero rows (touched
    by a move or not)."""
    n = rng.randint(1, 5)
    kind = rng.randrange(4)
    if kind == 1 and n > 1:
        base = symmetric_with_kernel(rng, n, [random_vector(rng, n, nonzero=True)])
    else:
        base = rand_sym_ints(rng, n)
    coeffs = [rand_sym_ints(rng, n) for _ in range(m)]
    if kind == 2:
        dens = [[rng.randint(1, 9) for _ in range(n)] for _ in range(n)]
        for mat in [base] + coeffs:
            for i in range(n):
                for j in range(i, n):
                    mat[i][j] = mat[j][i] = Fraction(mat[i][j], dens[i][j] * dens[j][i])
    if kind == 3:
        zero = rng.sample(range(n), rng.randint(1, n))
        for mat in [base] + (coeffs if rng.random() < 0.5 else []):
            for i in zero:
                for j in range(n):
                    mat[i][j] = mat[j][i] = Fraction(0)
    return PencilFamily(QuadSpace(base), coeffs)


def test_graded_parts_match_phi_expansion():
    """Phi_0..Phi_top of the graded route equal the full expansion's, for
    every top up to two past the dimension, where the parts are zero."""
    rng = random.Random(314)
    for case in range(300):
        fam = graded_family(rng, 1 + case % 5)
        full = phi_expansion(fam)
        zero = full[0] * 0
        for top in range(fam.base.dim + 3):
            parts = fam.pencil.graded_parts(fam.varnames, top)
            assert parts == (full + [zero] * 2)[:top + 1], (case, top)


def test_graded_parts_without_moves_and_below_degree_zero():
    fam = PencilFamily(QuadSpace(diag(2, 3)), [])
    assert fam.pencil.graded_parts((), 3) == phi_expansion(fam) + [phi_expansion(fam)[1]]
    with pytest.raises(ValueError, match="nonnegative"):
        fam.pencil.graded_parts((), -1)


def _last_part_coefficient_doubled(real):
    def graded_parts(self, variables, top):
        parts = real(self, variables, top)
        if not parts[-1].is_zero():
            e, c = parts[-1].leading()
            parts[-1] = parts[-1] + MultiPoly(variables, {e: c})
        return parts
    return graded_parts


def _last_part_homogenized_one_degree_up(real):
    def graded_parts(self, variables, top):
        parts = real(self, variables, top)
        parts[-1] = MultiPoly(variables, {(e[0] + 1,) + e[1:]: c
                                          for e, c in parts[-1].terms.items()})
        return parts
    return graded_parts


@pytest.mark.parametrize("mutant", [_last_part_coefficient_doubled,
                                    _last_part_homogenized_one_degree_up])
def test_every_graded_ledger_line_fails_on_a_perturbed_graded_route(monkeypatch, mutant):
    """A piece of the graded route scaled in one coefficient, or
    homogenized one degree too high, turns each of the three statements
    that read it to FAIL; corank duality does not read it."""
    from epw import checks

    monkeypatch.setattr(Pencil, "graded_parts", mutant(Pencil.graded_parts))
    verdicts = {r.name: r.ok for r in checks.quadratic_form_suites(1, 20)}
    assert verdicts == {"corank-duality": True, "kernel-block-expansion": False,
                        "vanishing-kernel-expansion": False, "phi2-rank-formula": False}


# -- integer rows -----------------------------------------------------------------

def scaled_form(rng, g):
    """g divided by a random positive integer: mixed denominators between
    the base and the coefficients of a family."""
    den = rng.randint(1, 6)
    return [[Fraction(x, den) for x in row] for row in g]


def congruent_family(rng, d, k, m):
    """A family vanishing on the kernel of its base, in a random basis: the
    block base (invertible on the first d - k coordinates, zero on the
    last k) and coefficients that are zero on the last k x k block, all
    carried by one random invertible P to P^t X P, so the kernel of the
    base is not spanned by unit vectors."""
    while True:
        s = rand_sym_ints(rng, d - k)
        p = [random_vector(rng, d) for _ in range(d)]
        if rank(s) == d - k and rank(p) == d:
            break
    pt = linalg.transpose(p)
    base = [[s[i][j] if i < d - k and j < d - k else Fraction(0) for j in range(d)]
            for i in range(d)]
    coeffs = []
    for _ in range(m):
        b = rand_sym_ints(rng, d)
        for i in range(d - k, d):
            for j in range(d - k, d):
                b[i][j] = Fraction(0)
        coeffs.append(scaled_form(rng, linalg.restrict_gram(b, pt)))
    return PencilFamily(QuadSpace(linalg.restrict_gram(base, pt)), coeffs)


def test_quad_space_kernel_follows_the_fraction_route():
    """kernel() is linalg.nullspace of the Gram, kernel_rows() its
    primitive integer multiples, kernel_scale() the product of the
    factors, and corank() the nullity, for kernels of dimension 0..d."""
    rng = random.Random(61)
    grams = [diag(0, 0, 0), diag(2, 3)]
    for _ in range(100):
        d = rng.randint(1, 7)
        k = rng.randint(0, d - 1)
        grams.append(symmetric_with_kernel(rng, d, [random_vector(rng, d) for _ in range(k)]))
    for g in grams:
        q = QuadSpace(scaled_form(rng, g))
        canonical = linalg.nullspace(q.gram)
        assert q.kernel() == canonical and q.corank() == q.dim - rank(q.gram)
        factors = []
        for w, v in zip(q.kernel_rows(), canonical):
            f = next(x for x in w if x) / next(x for x in v if x)
            assert f > 0 and f.denominator == 1 and [f * x for x in v] == w
            factors.append(f)
        assert q.kernel_scale() == prod(factors)


def test_quad_space_with_a_scale_is_the_form_of_its_gram():
    """QuadSpace(rows, den=D) is QuadSpace of the Gram rows / D: the same
    Gram, reduced rows, kernel and dual form; a PencilFamily on it has the
    determinant, pieces and kernel-block constant of one on the Fraction
    Gram, also where D is not the lcm of the Gram's denominators.  A scale
    with rows that are not integers is refused."""
    rng = random.Random(67)
    for _ in range(100):
        d = rng.randint(1, 6)
        den = rng.randint(1, 12)
        g = symmetric_with_kernel(rng, d, [random_vector(rng, d)
                                           for _ in range(rng.randint(0, d - 1))])
        rows = [[den * x for x in row] for row in linalg.scaled_int_rows(g)[1]]
        scale = den * linalg.scaled_int_rows(g)[0]
        q, ref = QuadSpace(rows, den=scale), QuadSpace(g)
        assert q.gram == ref.gram and q.den == scale
        assert (q.echelon, q.pivots, q.free) == (ref.echelon, ref.pivots, ref.free)
        assert q.kernel() == ref.kernel() and dual_form(q).gram == dual_form(ref).gram
        coeffs = [scaled_form(rng, rand_sym_ints(rng, d)) for _ in range(rng.randint(0, 2))]
        fam, ref_fam = PencilFamily(q, coeffs), PencilFamily(ref, coeffs)
        assert fam.pencil.det_poly(fam.varnames) == ref_fam.pencil.det_poly(fam.varnames)
        assert phi_expansion(fam) == phi_expansion(ref_fam)
        assert degenerate_cone_check(fam)[:2] == degenerate_cone_check(ref_fam)[:2]
    with pytest.raises(ValueError, match="integer rows"):
        QuadSpace([[Fraction(1, 2)]], den=2)


def test_family_pencil_holds_the_rows_of_a_fraction_pencil():
    """The pencil of a PencilFamily, built on the base's integer rows,
    holds the scale, base and moves that a Pencil of the Fraction Gram
    and coefficients holds."""
    rng = random.Random(68)
    for case in range(100):
        fam = graded_family(rng, case % 4)
        ref = Pencil(fam.base.gram, fam.coeffs)
        assert (fam.pencil.den, fam.pencil.base, fam.pencil.moves) == (ref.den, ref.base, ref.moves)


def test_dual_form_matches_the_congruence_route():
    """ann_basis is the reduced row basis of the Gram and the Gram is the
    congruence [x_i . G x_j] of the solutions of G x_j = phi_j."""
    rng = random.Random(62)
    for _ in range(150):
        d = rng.randint(1, 7)
        k = rng.randint(0, d - 1)
        g = scaled_form(rng, symmetric_with_kernel(rng, d, [random_vector(rng, d)
                                                          for _ in range(k)]))
        dual = dual_form(QuadSpace(g))
        ann = linalg.row_basis(g)
        assert dual.ann_basis == ann
        assert dual.gram == linalg.restrict_gram(g, linalg.solve(g, ann))


def _constant(phi, rhs):
    """phi / rhs read at the leading term of rhs."""
    e, c = rhs.leading()
    return phi.coeff(e) / c


def test_kernel_block_constant_is_taken_on_the_canonical_kernel():
    """c of degenerate_cone_check equals Phi_k / det(q|_K) with K the
    canonical kernel basis and every form in Fractions."""
    rng = random.Random(63)
    seen = 0
    while seen < 60:
        d = rng.randint(2, 6)
        k = rng.randint(1, min(3, d - 1))
        base = symmetric_with_kernel(rng, d, [random_vector(rng, d) for _ in range(k)])
        fam = PencilFamily(QuadSpace(scaled_form(rng, base)),
                           [scaled_form(rng, rand_sym_ints(rng, d))
                            for _ in range(rng.randint(1, 3))])
        ok, c, phis = degenerate_cone_check(fam)
        kern = fam.base.kernel()
        k = len(kern)
        rhs = Pencil([[0] * k for _ in range(k)],
                     [linalg.restrict_gram(b, kern) for b in fam.coeffs]).det_poly(fam.varnames)
        assert ok
        if rhs.is_zero():
            assert c is None
            continue
        assert c == _constant(phis[k], rhs) and phis[k] == rhs * c
        seen += 1


def test_vanishing_kernel_constant_is_the_fraction_dual_determinant():
    """c of vanishing_kernel_check equals Phi_2k / det of the dual form on
    the covectors B_a kappa_i, formed with one Fraction solve and a
    congruence on the canonical kernel basis."""
    rng = random.Random(64)
    for _ in range(60):
        d = rng.randint(3, 7)
        k = rng.randint(1, min(2, d - 2))
        m = rng.randint(1, 3)
        fam = congruent_family(rng, d, k, m)
        ok, c, phis = vanishing_kernel_check(fam)
        g = fam.base.gram
        xs = linalg.solve(g, [linalg.mat_vec(b, u) for u in fam.base.kernel() for b in fam.coeffs])
        pairs = linalg.restrict_gram(g, xs)
        t = [MultiPoly.var(fam.varnames, v) for v in fam.varnames]
        zero = MultiPoly.zero(fam.varnames)
        entries = [[sum((t[a] * t[b] * pairs[i * m + a][j * m + b]
                         for a in range(m) for b in range(m)), zero)
                    for j in range(k)] for i in range(k)]
        rhs = det_bareiss(PolyMatrix(entries))
        assert ok
        if rhs.is_zero():
            assert c is None
        else:
            assert c == _constant(phis[2 * k], rhs) and phis[2 * k] == rhs * c


# -- the Fraction route to corank duality, kept as the reference -------------------

def reference_cork_restrict(q, s_rows):
    """cork(q|S) on the Fraction row basis of S and its restricted Gram."""
    basis = linalg.row_basis(linalg.fmat(s_rows))
    if not basis:
        return 0
    return len(basis) - rank(linalg.restrict_gram(q.gram, basis))


def reference_dual_form(q):
    """(ann_basis, gram) of the dual form as Fractions: the reduced rows of
    the Gram divided by their pivots, and den y / det for the solve of
    the pivot minor."""
    ann = [[Fraction(x, row[p]) for x in row] for row, p in zip(q.echelon, q.pivots)]
    minor = [[q.rows[i][j] for j in q.pivots] for i in q.pivots]
    r = len(minor)
    det, y = bareiss_solve(minor, [[int(i == j) for j in range(r)] for i in range(r)])
    return ann, [[Fraction(q.den * x, det) for x in row] for row in y]


def reference_corank_on(ann_basis, gram, covector_rows):
    """The corank of the dual Gram on a span of covectors, by one Fraction
    solve for their coordinates and the Gram on their row basis."""
    coords = linalg.solve(linalg.transpose(ann_basis),
                          [linalg.fvec(phi) for phi in covector_rows])
    if None in coords:
        raise ValueError("covector is not in Ann(ker q)")
    basis = linalg.row_basis(coords)
    if not basis:
        return 0
    return len(basis) - rank(linalg.restrict_gram(gram, basis))


def reference_ann_of_span(rows, dim):
    if not rows:
        return linalg.identity(dim)
    return linalg.nullspace(linalg.fmat(rows))


def _outcome(f, *args):
    """f(*args), or "raises" for a ValueError."""
    try:
        return f(*args)
    except ValueError:
        return "raises"


def _compare_duality_routes(q, s_rows, covector_rows):
    """The integer and Fraction routes agree on q, S and the covectors:
    cork_restrict, the dual form's basis and Gram, the annihilator of S
    and corank_on (a ValueError in both for a covector outside Ann(ker q)).
    Returns (cork(q|S), the corank_on outcome)."""
    cork = cork_restrict(q, s_rows)
    assert cork == reference_cork_restrict(q, s_rows)
    dual = dual_form(q)
    ann, gram = reference_dual_form(q)
    assert dual.ann_basis == ann and dual.gram == gram
    assert ann_of_span(s_rows, q.dim) == reference_ann_of_span(s_rows, q.dim)
    got = _outcome(dual.corank_on, covector_rows)
    if q.pivots:
        assert got == _outcome(reference_corank_on, ann, gram, covector_rows)
    else:
        # q = 0: Ann(ker q) = 0, where the Fraction solve has no equation
        # and refuses even the zero covector
        assert got == ("raises" if any(x for row in covector_rows for x in row) else 0)
    return cork, got


def duality_draw(rng):
    """(q, S rows, covector rows) on Q^d, d <= 7: q of corank 0..d-1, or
    in a quarter of the draws q with a degenerate top-left m x m block
    and S its m unit vectors; q rational in half the draws (scaled_form);
    S with a dependent row in
    half the draws, rational in some; covectors G s for the rows s of S
    and random integer combinations of the rows of G (all inside Ann(ker
    q), and isotropic for the dual form where q is on S), plus a random
    covector in a third of the draws (outside Ann(ker q) when q is
    degenerate, almost always)."""
    d = rng.randint(1, 7)
    if d > 1 and rng.random() < 0.25:
        m = rng.randint(1, d - 1)
        g = random_symmetric(rng, d)
        for i, row in enumerate(symmetric_with_kernel(rng, m, [random_vector(rng, m)])):
            g[i][:m] = row
        s = [[int(i == j) for j in range(d)] for i in range(m)]
    else:
        k = rng.randint(0, d - 1)
        g = symmetric_with_kernel(rng, d, [random_vector(rng, d) for _ in range(k)])
        s = [random_vector(rng, d) for _ in range(rng.randint(0, d))]
    q = QuadSpace(scaled_form(rng, g) if rng.random() < 0.5 else g)
    if s and rng.random() < 0.5:
        s.append([2 * x - y for x, y in zip(s[0], s[-1])])
    if rng.random() < 0.2:
        s = [[Fraction(x, rng.randint(1, 4)) for x in row] for row in s]
    rows = q.gram
    covectors = [[sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(d)]
                 for coeffs in s + [random_vector(rng, d) for _ in range(rng.randint(0, 2))]]
    if rng.random() < 1 / 3:
        covectors.append(random_vector(rng, d))
    return q, s, covectors


def test_corank_duality_integer_route_matches_the_fraction_route():
    """On 2000 seeded draws the two routes agree; the draws reach positive
    cork(q|S), positive coranks of the dual form and covectors outside
    Ann(ker q)."""
    rng = random.Random(65)
    corks, coranks, raised = 0, 0, 0
    for _ in range(2000):
        cork, got = _compare_duality_routes(*duality_draw(rng))
        corks += cork > 0
        raised += got == "raises"
        coranks += got != "raises" and got > 0
    assert min(corks, coranks, raised) >= 50, (corks, coranks, raised)


@st.composite
def duality_examples(draw):
    """q on Q^d, d <= 5, with entries in [-4, 4] over a denominator 1-3
    and some rows and columns zero, rows of S and covectors in [-3, 3]:
    small boxes, so singular Grams, dependent rows and covectors in and
    outside Ann(ker q) occur often."""
    d = draw(st.integers(1, 5))
    entry = st.integers(-4, 4)
    upper = [[draw(entry) for _ in range(d - i)] for i in range(d)]
    den = draw(st.integers(1, 3))
    zero = draw(st.sets(st.integers(0, d - 1), max_size=d))
    g = [[Fraction(0) if i in zero or j in zero else
          Fraction(upper[min(i, j)][abs(i - j)], den) for j in range(d)] for i in range(d)]
    vec = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    s = draw(st.lists(vec, max_size=d + 1))
    covectors = draw(st.lists(vec, max_size=3))
    return QuadSpace(g), s, covectors


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(example=duality_examples())
def test_corank_duality_routes_agree_under_search(example):
    _compare_duality_routes(*example)


def test_every_kernel_ledger_line_fails_on_a_kernel_missing_a_vector(monkeypatch):
    """The integer kernel with its last vector dropped (when it has two or
    more) turns each statement that reads a kernel to FAIL; corank
    duality reads none."""
    from epw import checks, varquad

    real = varquad._kernel

    def dropped(a, pivots, cols):
        out = real(a, pivots, cols)
        return out[:-1] if len(out) > 1 else out

    monkeypatch.setattr(varquad, "_kernel", dropped)
    verdicts = {r.name: r.ok for r in checks.quadratic_form_suites(1, 20)}
    assert verdicts == {"corank-duality": True, "kernel-block-expansion": False,
                        "vanishing-kernel-expansion": False, "phi2-rank-formula": False}


def test_corank_duality_draws_of_positive_corank_catch_a_dual_gram_off_by_det(monkeypatch):
    """On seed 1, at least 100 of 200 corank-duality cases restrict q to S
    of positive corank, and the dual Gram with det added to entry (0, 0)
    of its solve gives the wrong corank on at least 192 of the first 200
    such draws."""
    from epw import checks, varquad

    seen = []
    real_cork = checks.cork_restrict

    def recording(q, s):
        seen.append((q, s, real_cork(q, s)))
        return seen[-1][2]

    monkeypatch.setattr(checks, "cork_restrict", recording)
    assert checks.check_corank_duality(1, 200).ok
    assert sum(c > 0 for _, _, c in seen) >= 100
    seen.clear()
    assert checks.check_corank_duality(1, 420).ok
    degenerate = [(q, s, c) for q, s, c in seen if c > 0][:200]
    assert len(degenerate) == 200
    real = varquad.bareiss_solve

    def off_by_det(m, rhs):
        det, y = real(m, rhs)
        if y:
            y[0][0] += det
        return det, y

    monkeypatch.setattr(varquad, "bareiss_solve", off_by_det)
    wrong = sum(dual_form(q).corank_on(ann_of_span(s, q.dim)) != c for q, s, c in degenerate)
    assert wrong >= 192


def test_corank_duality_fails_on_a_dual_gram_off_by_det(monkeypatch):
    """The dual Gram with det added to entry (0, 0) of the solve it is read
    from turns corank duality to FAIL, through its restrictions of
    positive corank (on seeds 2 and 3, random restrictions alone pass 20
    cases); no other statement reads the dual form."""
    from epw import checks, varquad

    real = varquad.bareiss_solve

    def off_by_det(m, rhs):
        det, y = real(m, rhs)
        if y:
            y[0][0] += det
        return det, y

    monkeypatch.setattr(varquad, "bareiss_solve", off_by_det)
    for seed in (2, 3):
        verdicts = {r.name: r.ok for r in checks.quadratic_form_suites(seed, 20)}
        assert verdicts == {"corank-duality": False, "kernel-block-expansion": True,
                            "vanishing-kernel-expansion": True, "phi2-rank-formula": True}
