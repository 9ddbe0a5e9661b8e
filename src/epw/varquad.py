"""Variable quadratic forms: duals, wedge powers, corank duality and the
graded expansion of det(q_* + q).

A QuadSpace is a quadratic form on Q^d given by its symmetric Gram
matrix.  A PencilFamily is a base form q_* together with a linear family
q(t) = sum t_a B_a, held as one polymat.Pencil; the graded pieces Phi_i
of det(q_* + q(t)) are then homogeneous of degree i in t and the
corank/kernel statements about them are checkable exactly.

The forms are held as integer rows, scaled once.  A QuadSpace scales its
Gram by the lcm of its denominators and takes its rank, its reduced rows
and a primitive integer kernel from one linalg._gauss_jordan.  A
PencilFamily reads the integer base L q_* and coefficients L B_a off the
one lcm L its Pencil computes.  The scale-free steps of the three pencil
statements (the zero tests, ranks and kernels, the solve for q~(K), the
restricted pencils and the proportionality test) run on these rows with
zlinalg.int_gram and integer elimination.  Fractions appear only at the
public outputs: kernel(), DualForm, the pieces Phi_i and the constant c,
which is rescaled once by the integer factor the scaling put in.
"""

from fractions import Fraction
from itertools import combinations
from math import lcm, prod

from . import linalg
from .linalg import _gauss_jordan, _kernel, fmat, fvec, rank, restrict_gram, scaled_int_rows
from .poly import MultiPoly, homogeneous_part, quadratic_form_rank
from .polymat import Pencil, PolyMatrix, det_poly_matrix
from .zlinalg import bareiss_solve, int_gram


def _matrix(m):
    """m as a Fraction matrix; ValueError unless m is a list of rows."""
    if not isinstance(m, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in m):
        raise ValueError("a Gram or coefficient matrix must be a list of rows")
    return fmat(m)


class QuadSpace:
    """A quadratic form on Q^d, d <= 10, by its symmetric Gram matrix.

    Wedge powers live on larger spaces; the cap applies to base spaces.
    rows = den * gram is integral; echelon and pivots are its reduced
    rows, and free its kernel as linalg._kernel's [(j, w)]: a primitive
    integer w per free column j, with w / w[j] the canonical kernel vector.
    """

    __slots__ = ("dim", "gram", "den", "rows", "echelon", "pivots", "free")

    def __init__(self, gram, _cap=10):
        g = _matrix(gram)
        if _cap is not None and len(g) > _cap:
            raise ValueError("dimension bound is %d" % _cap)
        if not linalg.is_symmetric(g):
            raise ValueError("Gram matrix must be symmetric")
        self.dim = len(g)
        self.gram = g
        self.den, self.rows = scaled_int_rows(g)
        self.echelon, self.pivots = _gauss_jordan(self.rows, self.dim)
        self.free = _kernel(self.echelon, self.pivots, self.dim)

    def corank(self):
        return len(self.free)

    def kernel(self):
        """The canonical basis of ker q, as linalg.nullspace gives it."""
        return [[Fraction(x, w[j]) for x in w] for j, w in self.free]

    def kernel_rows(self):
        """The primitive integer kernel basis: kernel() up to a positive
        factor per vector, their product being kernel_scale()."""
        return [w for _, w in self.free]

    def kernel_scale(self):
        return prod(w[j] for j, w in self.free)

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

    Concretely: the reduced rows phi_1..phi_r of the Gram matrix G (a
    basis of Ann(ker q), its row space) plus the Gram matrix [x_i . phi_j]
    where G x_j = phi_j.  G = R^t M R for R the rows phi_i and M the minor
    of G on the pivot coordinates, where R is the identity, so R x_j =
    M^-1 e_j and x_i . phi_j = (M^-1)_ij: one integer solve of the minor.
    For nondegenerate q this is the inverse Gram matrix in disguise.
    """
    ann = [[Fraction(x, row[p]) for x in row] for row, p in zip(q.echelon, q.pivots)]
    minor = [[q.rows[i][j] for j in q.pivots] for i in q.pivots]   # den * M
    r = len(minor)
    det, y = bareiss_solve(minor, [[int(i == j) for j in range(r)] for i in range(r)])
    # den M y = det I, so M^-1 = den * y / det
    return DualForm(ann, [[Fraction(q.den * x, det) for x in row] for row in y])


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
    """q_* plus a linear family q(t) = sum_a t_a B_a of symmetric forms.

    int_coeffs are the integer rows L B_a, read off the pencil's one lcm L
    (pencil.den); pencil.base is L q_*.
    """

    __slots__ = ("base", "coeffs", "varnames", "pencil", "int_coeffs")

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
        n = base.dim
        self.int_coeffs = []
        for move in self.pencil.moves:
            b = [[0] * n for _ in range(n)]
            for i, j, c in move:
                b[i][j] = c
            self.int_coeffs.append(b)


def phi_expansion(fam: PencilFamily):
    """The graded pieces Phi_0..Phi_d of det(q_* + q(t)) in t."""
    det = fam.pencil.det_poly(fam.varnames)
    return [homogeneous_part(det, i) for i in range(fam.base.dim + 1)]


def _image(b, v):
    """b v for integer rows b and an integer vector v."""
    return [sum(x * y for x, y in zip(row, v) if y) for row in b]


def _rescaled(c, factor):
    return None if c is None else c * factor


def degenerate_cone_check(fam: PencilFamily):
    """Kernel-block statement: with k = cork q_*, Phi_i = 0 for i < k and
    Phi_k(q) = c det(q|_K) for a single nonzero constant c.

    Returns (ok, c, phis), with phis = [Phi_0, ..., Phi_k], the pieces
    the statement reads.  det(q|_K) is taken on the canonical kernel
    basis (QuadSpace.kernel); the integer pencil of L B_a restricted to
    the primitive kernel rows has det L^k P^2 times it, P the
    kernel_scale, and c is rescaled by that factor.
    """
    k = fam.base.corank()
    phis = fam.pencil.graded_parts(fam.varnames, k)
    for i in range(k):
        if not phis[i].is_zero():
            return False, None, phis
    kern = fam.base.kernel_rows()
    moves = [int_gram(b, kern) for b in fam.int_coeffs]
    rhs = Pencil([[0] * k for _ in range(k)], moves).det_poly(fam.varnames)
    # c is None when both sides vanish identically on the pencil; the
    # proportionality claim lives on the full space of forms, so a pencil
    # on which both sides are zero is consistent
    ok, c = _proportional(phis[k], rhs)
    return ok, _rescaled(c, fam.pencil.den ** k * fam.base.kernel_scale() ** 2), phis


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
    kern = fam.base.kernel_rows()
    if any(x for b in fam.int_coeffs for row in int_gram(b, kern) for x in row):
        raise ValueError("family does not vanish on ker q_*")
    phis = fam.pencil.graded_parts(fam.varnames, 2 * k)
    for i in range(2 * k):
        if not phis[i].is_zero():
            return False, None, phis
    if k == 0:
        return True, Fraction(1), phis
    # Gram of the dual form on the moving covectors q~(t) kappa_i, entries
    # quadratic in t: with q_* x_ia = B_a kappa_i, the t_a t_b coefficient
    # of entry (i, j) is x_ia . B_b kappa_j.  On integer rows: psi_ia =
    # L B_a kappa_i for the primitive kappa_i = s_i K_i, one _gauss_jordan
    # of [L q_* | psi] gives y_ia = D s_i x_ia integral (D the lcm of its
    # pivots), and y_ia . psi_jb = D L s_i s_j (x_ia . B_b kappa_j).
    m = len(fam.coeffs)
    d = fam.base.dim
    psi = [_image(b, w) for w in kern for b in fam.int_coeffs]   # psi[i * m + a]
    rows, pivots = _gauss_jordan([row + [v[r] for v in psi]
                                  for r, row in enumerate(fam.pencil.base)], d)
    if any(x for row in rows[len(pivots):] for x in row[d:]):
        raise ValueError("q~(K) does not land in the image of q_*")
    pivot_lcm = lcm(*(row[p] for row, p in zip(rows, pivots)))
    ys = [[(p, row[d + c] * (pivot_lcm // row[p])) for row, p in zip(rows, pivots)]
          for c in range(len(psi))]
    entries = []
    for i in range(k):
        row = []
        for j in range(k):
            terms = {}
            for a in range(m):
                for b in range(m):
                    v = sum(y * psi[j * m + b][p] for p, y in ys[i * m + a])
                    if v:
                        e = [0] * m
                        e[a] += 1
                        e[b] += 1
                        key = tuple(e)
                        terms[key] = terms.get(key, 0) + v
            row.append(MultiPoly(fam.varnames, terms))
        entries.append(row)
    rhs = det_poly_matrix(PolyMatrix(entries))
    ok, c = _proportional(phis[2 * k], rhs)
    scale = (pivot_lcm * fam.pencil.den) ** k * fam.base.kernel_scale() ** 2
    return ok, _rescaled(c, scale), phis


def phi2_rank(fam: PencilFamily):
    """Both sides of the corank-1 rank formula, with an equality flag.

    Preconditions: cork q_* = 1 with kernel <e>, and every member of the
    family kills e.  Left side: rank of Phi_2 as a quadratic form in t.
    Right side: cod(T, U) - cork(qbar_* on T/<e>) where T is the common
    annihilator of the moving images of e.  The right side is read off
    integer rows only.

    Returns (lhs, rhs, equal).
    """
    if fam.base.corank() != 1:
        raise ValueError("base form must have corank 1")
    (e,) = fam.base.kernel_rows()
    d = fam.base.dim
    if any(int_gram(b, [e])[0][0] for b in fam.int_coeffs):
        raise ValueError("family does not kill the kernel vector")
    lhs = quadratic_form_rank(fam.pencil.graded_parts(fam.varnames, 2)[2])
    # T = Ann of the span of B_a e
    images, pivots = _gauss_jordan([_image(b, e) for b in fam.int_coeffs], d)
    cod = len(pivots)
    t_basis = [w for _, w in _kernel(images, pivots, d)]
    # cork of the induced form on T/<e>: e lies in T and in ker(q_*|_T)
    t_gram = int_gram(fam.pencil.base, t_basis)
    cork_t = len(t_basis) - len(_gauss_jordan(t_gram, len(t_basis))[1])
    rhs = cod - (cork_t - 1)
    return lhs, rhs, lhs == rhs
