"""Dual forms, wedge powers, corank duality and the graded determinant."""

from fractions import Fraction
from math import prod
import random

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
                b[i][i] -= val / (e[i] * e[i])
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
                    mat[i][j] = mat[j][i] = mat[i][j] / (dens[i][j] * dens[j][i])
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
    return [[x / den for x in row] for row in g]


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
