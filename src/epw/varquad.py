"""Variable quadratic forms: duals, wedge powers, corank duality and the
graded expansion of det(q_* + q).

A QuadSpace is a quadratic form on Q^d given by its symmetric Gram
matrix.  A PencilFamily is a base form q_* together with a linear family
q(t) = sum t_a B_a, held as one polymat.Pencil; the graded pieces Phi_i
of det(q_* + q(t)) are then homogeneous of degree i in t and the
corank/kernel statements about them are checkable exactly.

The forms are held as integer rows, scaled once.  The ints of a Gram or
coefficient matrix are kept as they are (no Fraction is built); a
QuadSpace scales its Gram by the lcm of its denominators, or takes
integer rows with their one scale as a sampler draws them, and takes its
rank, its reduced rows and a primitive integer kernel from one
linalg._gauss_jordan, so a drawn Gram is eliminated once.  A
PencilFamily builds its Pencil on those rows and reads the integer base
L q_* and coefficients L B_a off the pencil's one lcm L.

Corank duality runs on the same rows.  cork_restrict takes the reduced
integer rows of S and the rank of zlinalg.int_gram(q.rows, basis).  The
dual form holds the reduced rows e_i of q, whose pivots p_i give the
covector basis e_i / e_i[p_i] of Ann(ker q), and the integer solve y of
den M y = det I on the pivot minor M.  A covector phi has coordinates
phi[p_i] in that basis, and lies in Ann(ker q) exactly when L phi =
sum phi[p_i] (L / e_i[p_i]) e_i, L the lcm of the pivot entries; the
corank of the dual form on a span is that of int_gram(y, basis) on the
reduced coordinates.  The scale-free steps of the three pencil
statements (the zero tests, ranks and kernels, the solve for q~(K), the
restricted pencils and the proportionality test) run on these rows with
int_gram and integer elimination.  Fractions appear only at the public
outputs: gram, kernel(), the DualForm's ann_basis and gram (views built
on access), the pieces Phi_i and the constant c, which is rescaled once
by the integer factor the scaling put in.
"""

from fractions import Fraction
from itertools import combinations
from math import lcm, prod

from . import linalg
from .linalg import _gauss_jordan, _kernel, fmat, frac, restrict_gram, scaled_int_rows
from .poly import MultiPoly, homogeneous_parts, quadratic_form_rank
from .polymat import Pencil, PolyMatrix, det_poly_matrix
from .zlinalg import bareiss_solve, int_gram


def _matrix(m):
    """m with its ints kept as they are and every other entry made a
    Fraction by linalg.frac; ValueError unless m is a list of rows."""
    if not isinstance(m, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in m):
        raise ValueError("a Gram or coefficient matrix must be a list of rows")
    return [[x if type(x) is int else frac(x) for x in r] for r in m]


class QuadSpace:
    """A quadratic form on Q^d, d <= 10, by its symmetric Gram matrix.

    Wedge powers live on larger spaces; the cap applies to base spaces.
    rows = den * gram is integral; echelon and pivots are its reduced
    rows, and free its kernel as linalg._kernel's [(j, w)]: a primitive
    integer w per free column j, with w / w[j] the canonical kernel vector.

    With den, gram is already the integer rows of den times the form (as
    wedge.scaled_symmetric_with_kernel draws them) and is taken as it is;
    the Fraction Gram is then built on first access.
    """

    __slots__ = ("dim", "_gram", "den", "rows", "echelon", "pivots", "free")

    def __init__(self, gram, _cap=10, den=1):
        g = _matrix(gram)
        if _cap is not None and len(g) > _cap:
            raise ValueError("dimension bound is %d" % _cap)
        if not linalg.is_symmetric(g):
            raise ValueError("Gram matrix must be symmetric")
        self.dim = len(g)
        self.den, self.rows = scaled_int_rows(g)
        self._gram = g
        if den != 1:
            if self.den != 1:
                raise ValueError("a Gram with a scale must be integer rows")
            self.den, self._gram = den, None
        self.echelon, self.pivots = _gauss_jordan(self.rows, self.dim)
        self.free = _kernel(self.echelon, self.pivots, self.dim)

    @property
    def gram(self):
        if self._gram is None:
            self._gram = [[Fraction(x, self.den) for x in row] for row in self.rows]
        return self._gram

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


def _int_rows(rows, dim):
    """Rows of length dim (ints, Fractions or what linalg.frac reads),
    each scaled by one common lcm to integers; ValueError for another
    length."""
    rows = _matrix(rows)
    if any(len(row) != dim for row in rows):
        raise ValueError("vector of length other than %d" % dim)
    return scaled_int_rows(rows)[1]


def _reduced(rows, ncols):
    """The nonzero reduced rows of integer rows: a basis of their span."""
    a, pivots = _gauss_jordan(rows, ncols)
    return a[:len(pivots)]


def _corank_on(g, basis):
    """len(basis) - rank of the integer form g restricted to the rows basis."""
    if not basis:
        return 0
    return len(basis) - len(_gauss_jordan(int_gram(g, basis), len(basis))[1])


def cork_restrict(q: QuadSpace, s_rows) -> int:
    """Corank of the restriction of q to the subspace spanned by s_rows:
    the reduced integer rows of S and the rank of int_gram(q.rows, basis)."""
    return _corank_on(q.rows, _reduced(_int_rows(s_rows, q.dim), q.dim))


class DualForm:
    """The dual form on Ann(ker q), with its chosen covector basis.

    Held as integers: rows and pivots are the reduced rows of q, so the
    basis covectors are phi_i = rows[i] / rows[i][pivots[i]], and y is
    the integer solve den M y = det I of dual_form, so the Gram is
    den * y / det.  ann_basis and gram are Fraction views built on access.
    """

    __slots__ = ("dim", "rows", "pivots", "den", "det", "y")

    def __init__(self, dim, rows, pivots, den, det, y):
        self.dim, self.rows, self.pivots = dim, rows, pivots
        self.den, self.det, self.y = den, det, y

    @property
    def ann_basis(self):
        """The covector basis phi_i, rows in the standard dual basis."""
        return [[Fraction(x, row[p]) for x in row] for row, p in zip(self.rows, self.pivots)]

    @property
    def gram(self):
        return [[Fraction(self.den * x, self.det) for x in row] for row in self.y]

    def corank_on(self, covector_rows):
        """Corank of the dual form restricted to a span of covectors.

        The covectors must lie in Ann(ker q), the row space of the reduced
        rows e_i, where each e_i is the only one nonzero at its pivot p_i.
        So the coordinates of phi are its entries phi[p_i], and phi lies in
        it exactly when L phi = sum_i phi[p_i] (L / e_i[p_i]) e_i, with L
        the lcm of the pivot entries.  The corank is then that of the
        integer form y on the reduced rows of the coordinates.
        """
        lead = lcm(*(row[p] for row, p in zip(self.rows, self.pivots)))
        scales = [lead // row[p] for row, p in zip(self.rows, self.pivots)]
        coords = []
        for phi in _int_rows(covector_rows, self.dim):
            c = [phi[p] for p in self.pivots]
            combo = [lead * x for x in phi]
            for ci, s, row in zip(c, scales, self.rows):
                if ci:
                    f = ci * s
                    combo = [x - f * y for x, y in zip(combo, row)]
            if any(combo):
                raise ValueError("covector is not in Ann(ker q)")
            coords.append(c)
        return _corank_on(self.y, _reduced(coords, len(self.pivots)))


def dual_form(q: QuadSpace) -> DualForm:
    """Dual quadratic form: inverse of the map induced on Q^d / ker q.

    Concretely: the reduced rows phi_1..phi_r of the Gram matrix G (a
    basis of Ann(ker q), its row space) plus the Gram matrix [x_i . phi_j]
    where G x_j = phi_j.  G = R^t M R for R the rows phi_i and M the minor
    of G on the pivot coordinates, where R is the identity, so R x_j =
    M^-1 e_j and x_i . phi_j = (M^-1)_ij: one integer solve of the minor,
    den M y = det I, and M^-1 = den y / det.  For nondegenerate q this is
    the inverse Gram matrix in disguise.
    """
    minor = [[q.rows[i][j] for j in q.pivots] for i in q.pivots]   # den * M
    r = len(minor)
    det, y = bareiss_solve(minor, [[int(i == j) for j in range(r)] for i in range(r)])
    return DualForm(q.dim, q.echelon[:r], q.pivots, q.den, det, y)


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
    (pencil.den); pencil.base is L q_*.  The pencil is built on the base's
    integer rows D q_*, D = base.den, and the coefficients D B_a, and its
    own lcm is then multiplied by D: where D is the lcm of q_*'s
    denominators, that is the scale and the rows a Pencil of q_* and the
    B_a would find.
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
        den = base.den
        self.pencil = Pencil(base.rows, self.coeffs if den == 1 else
                             [[[den * x for x in row] for row in b] for b in self.coeffs])
        self.pencil.den *= den
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
    return homogeneous_parts(det, fam.base.dim)


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
