"""Variable quadratic forms: duals, wedge powers, corank duality and the
graded expansion of det(q_* + q).

A QuadSpace is a quadratic form on Q^d given by its symmetric Gram
matrix.  A PencilFamily is a base form q_* together with a linear family
q(t) = sum t_a B_a, held as one polymat.Pencil; the graded pieces Phi_i
of det(q_* + q(t)) are then homogeneous of degree i in t and the
corank/kernel statements about them are checkable exactly.
"""

from fractions import Fraction
from itertools import combinations

from . import linalg
from .linalg import fmat, fvec, rank, restrict_gram
from .poly import MultiPoly, homogeneous_part, quadratic_form_rank
from .polymat import Pencil, PolyMatrix, det_poly_matrix


def _matrix(m):
    """m as a Fraction matrix; ValueError unless m is a list of rows."""
    if not isinstance(m, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in m):
        raise ValueError("a Gram or coefficient matrix must be a list of rows")
    return fmat(m)


class QuadSpace:
    """A quadratic form on Q^d, d <= 10, by its symmetric Gram matrix.

    Wedge powers live on larger spaces; the cap applies to base spaces.
    """

    __slots__ = ("dim", "gram")

    def __init__(self, gram, _cap=10):
        g = _matrix(gram)
        if _cap is not None and len(g) > _cap:
            raise ValueError("dimension bound is %d" % _cap)
        if not linalg.is_symmetric(g):
            raise ValueError("Gram matrix must be symmetric")
        self.dim = len(g)
        self.gram = g

    def corank(self):
        return self.dim - rank(self.gram)

    def kernel(self):
        return linalg.nullspace(self.gram)

    def value(self, v):
        return restrict_gram(self.gram, [v])[0][0]

    def pairing(self, v, w):
        return restrict_gram(self.gram, [v, w])[0][1]


def cork_restrict(q: QuadSpace, s_rows) -> int:
    """Corank of the restriction of q to the subspace spanned by s_rows."""
    basis = linalg.row_basis(fmat(s_rows))
    if not basis:
        return 0
    g = restrict_gram(q.gram, basis)
    return len(basis) - rank(g)


class DualForm:
    """The dual form on Ann(ker q), with its chosen covector basis."""

    __slots__ = ("ann_basis", "gram")

    def __init__(self, ann_basis, gram):
        self.ann_basis = ann_basis  # rows: covectors in the standard dual basis
        self.gram = gram

    def corank_on(self, covector_rows):
        """Corank of the dual form restricted to a span of covectors.

        The covectors must lie in Ann(ker q).
        """
        coords = linalg.solve(linalg.transpose(self.ann_basis),
                              [fvec(phi) for phi in covector_rows])
        if None in coords:
            raise ValueError("covector is not in Ann(ker q)")
        basis = linalg.row_basis(coords)
        if not basis:
            return 0
        g = restrict_gram(self.gram, basis)
        return len(basis) - rank(g)


def dual_form(q: QuadSpace) -> DualForm:
    """Dual quadratic form: inverse of the map induced on Q^d / ker q.

    Concretely: a basis phi_1..phi_r of Ann(ker q) (the row space of the
    Gram matrix) plus the Gram matrix [phi_j(x_i)] where q~ x_i = phi_i.
    For nondegenerate q this is the inverse Gram matrix in disguise.
    """
    ann = linalg.row_basis(q.gram)
    xs = linalg.solve(q.gram, ann)
    assert None not in xs  # rows of the Gram span its column space
    # phi_j(x_i) = x_i . G x_j, a congruence of the symmetric G
    return DualForm(ann, restrict_gram(q.gram, xs))


def ann_of_span(rows, dim):
    """Covector basis of the annihilator of a span inside Q^dim."""
    if not rows:
        return linalg.identity(dim)
    return linalg.nullspace(fmat(rows))


def wedge_power_form(q: QuadSpace, i: int) -> QuadSpace:
    """The induced form on Lambda^i: the i-th compound of the Gram matrix.

    On a decomposable v_1 ^ ... ^ v_i the value is the determinant of the
    Gram matrix of q restricted to span(v_1..v_i) in that basis.
    """
    if not 1 <= i <= q.dim:
        raise ValueError("power out of range")
    subsets = list(combinations(range(q.dim), i))
    g = q.gram
    out = []
    for a in subsets:
        row = []
        for b in subsets:
            sub = [[g[r][c] for c in b] for r in a]
            row.append(linalg.det(sub))
        out.append(row)
    return QuadSpace(out, _cap=None)


def decomposable_coords(vectors, dim):
    """Coordinates of v_1 ^ ... ^ v_i in the lexicographic basis of Lambda^i."""
    i = len(vectors)
    m = fmat(vectors)
    out = []
    for sub in combinations(range(dim), i):
        out.append(linalg.det([[m[r][c] for c in sub] for r in range(i)]))
    return out


class PencilFamily:
    """q_* plus a linear family q(t) = sum_a t_a B_a of symmetric forms."""

    __slots__ = ("base", "coeffs", "varnames", "pencil")

    def __init__(self, base: QuadSpace, coeffs):
        self.base = base
        self.coeffs = [_matrix(b) for b in coeffs]
        if len(self.coeffs) > 5:
            raise ValueError("at most five parameters")
        for b in self.coeffs:
            if len(b) != base.dim or not linalg.is_symmetric(b):
                raise ValueError("coefficient matrices must be symmetric of matching size")
        self.varnames = tuple("t%d" % (a + 1) for a in range(len(self.coeffs)))
        self.pencil = Pencil(base.gram, self.coeffs)


def phi_expansion(fam: PencilFamily):
    """The graded pieces Phi_0..Phi_d of det(q_* + q(t)) in t."""
    det = fam.pencil.det_poly(fam.varnames)
    return [homogeneous_part(det, i) for i in range(fam.base.dim + 1)]


def degenerate_cone_check(fam: PencilFamily):
    """Kernel-block statement: with k = cork q_*, Phi_i = 0 for i < k and
    Phi_k(q) = c det(q|_K) for a single nonzero constant c.

    Returns (ok, c, phis), with phis = [Phi_0, ..., Phi_k], the pieces
    the statement reads.
    """
    k = fam.base.corank()
    phis = fam.pencil.graded_parts(fam.varnames, k)
    for i in range(k):
        if not phis[i].is_zero():
            return False, None, phis
    kern = fam.base.kernel()
    rhs = _restricted_det_poly(fam, kern)
    # c is None when both sides vanish identically on the pencil; the
    # proportionality claim lives on the full space of forms, so a pencil
    # on which both sides are zero is consistent
    ok, c = _proportional(phis[k], rhs)
    return ok, c, phis


def _restricted_det_poly(fam: PencilFamily, basis_rows):
    """det of q(t) restricted to a constant subspace, as a polynomial in t."""
    n = len(basis_rows)
    moves = [restrict_gram(b, basis_rows) for b in fam.coeffs]
    return Pencil([[0] * n for _ in range(n)], moves).det_poly(fam.varnames)


def _proportional(p: MultiPoly, q: MultiPoly):
    """(p == c * q, c); c = None when both vanish."""
    if p.is_zero() and q.is_zero():
        return True, None
    if p.is_zero() or q.is_zero():
        return False, None
    e, cq = q.leading()
    cp = p.coeff(e)
    if cp == 0:
        return False, None
    c = cp / cq
    return p == q * c, c


def vanishing_kernel_check(fam: PencilFamily):
    """Restricted-to-V_K statement: if every member of the family kills the
    kernel K of q_*, then Phi_i = 0 for i < 2k and Phi_2k(q) =
    c det(q_*^dual restricted to q~(K)).

    Returns (ok, c, phis), with phis = [Phi_0, ..., Phi_2k], the pieces
    the statement reads.  Raises if the family is not inside V_K.
    """
    k = fam.base.corank()
    kern = fam.base.kernel()
    if any(x for b in fam.coeffs for row in restrict_gram(b, kern) for x in row):
        raise ValueError("family does not vanish on ker q_*")
    phis = fam.pencil.graded_parts(fam.varnames, 2 * k)
    for i in range(2 * k):
        if not phis[i].is_zero():
            return False, None, phis
    if k == 0:
        return True, Fraction(1), phis
    # Gram of the dual form on the moving covectors q~(t) kappa_i, entries
    # quadratic in t: with q_* x_ia = B_a kappa_i, the t_a t_b coefficient
    # of entry (i, j) is x_ia . B_b kappa_j = x_ia . q_* x_jb.
    m = len(fam.coeffs)
    # xs[i * m + a] = x_ia
    xs = linalg.solve(fam.base.gram, [linalg.mat_vec(b, u) for u in kern for b in fam.coeffs])
    if None in xs:
        raise ValueError("q~(K) does not land in the image of q_*")
    pairs = restrict_gram(fam.base.gram, xs)
    entries = []
    for i in range(k):
        row = []
        for j in range(k):
            terms = {}
            for a in range(m):
                for b in range(m):
                    v = pairs[i * m + a][j * m + b]
                    if v != 0:
                        e = [0] * m
                        e[a] += 1
                        e[b] += 1
                        key = tuple(e)
                        terms[key] = terms.get(key, Fraction(0)) + v
            row.append(MultiPoly(fam.varnames, {e: c for e, c in terms.items() if c != 0}))
        entries.append(row)
    rhs = det_poly_matrix(PolyMatrix(entries))
    ok, c = _proportional(phis[2 * k], rhs)
    return ok, c, phis


def phi2_rank(fam: PencilFamily):
    """Both sides of the corank-1 rank formula, with an equality flag.

    Preconditions: cork q_* = 1 with kernel <e>, and every member of the
    family kills e.  Left side: rank of Phi_2 as a quadratic form in t.
    Right side: cod(T, U) - cork(qbar_* on T/<e>) where T is the common
    annihilator of the moving images of e.

    Returns (lhs, rhs, equal).
    """
    if fam.base.corank() != 1:
        raise ValueError("base form must have corank 1")
    e = fam.base.kernel()[0]
    d = fam.base.dim
    if any(restrict_gram(b, [e])[0][0] for b in fam.coeffs):
        raise ValueError("family does not kill the kernel vector")
    lhs = quadratic_form_rank(fam.pencil.graded_parts(fam.varnames, 2)[2])
    # T = Ann of the span of B_a e
    images = [linalg.mat_vec(b, e) for b in fam.coeffs]
    img_basis = linalg.row_basis(images)
    cod = len(img_basis)
    t_basis = linalg.nullspace(img_basis) if img_basis else linalg.identity(d)
    # cork of the induced form on T/<e>: e lies in T and in ker(q_*|_T)
    cork_t = len(t_basis) - rank(restrict_gram(fam.base.gram, t_basis))
    rhs = cod - (cork_t - 1)
    return lhs, rhs, lhs == rhs
