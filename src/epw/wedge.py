"""Exterior algebra of a 6-dimensional rational vector space.

Fixed basis e1..e6; Lambda^3 V has the 20 lexicographic basis trivectors
e_ijk (i<j<k) and carries the symplectic wedge pairing normalized by
vol(e1^...^e6) = 1.  All signs flow from lexicographic index order.  The
pairing is the Gram matrix PAIRING, a signed permutation (e_I pairs only
with its complement), so pairings and the isotropy test are congruence
products linalg.restrict_gram(PAIRING, rows).

Lagrangian subspaces are stored as reduced-echelon 10x20 rational
matrices.  Degeneracy loci, the Theta condition, sigma levels, the dual
membership test and the pointwise curve predicates are exact ranks.
Each space S that A is intersected with has a dimension known in
advance (10 for v ^ Lambda^2 V with v != 0, for Lambda^2 W ^ V with
dim W = 3 and for Lambda^3 E with dim E = 5), so dim(A ∩ S) = 20 -
rank [A; spanning rows of S]: one rank, with no basis of S reduced
first.
"""

from fractions import Fraction
from itertools import combinations
from math import lcm
import random

from . import linalg
from .linalg import fvec, rank, stack
from .zlinalg import bareiss_solve, int_det, int_gram

DIM = 6
TRIPLES = tuple(combinations(range(DIM), 3))          # 20 basis trivectors
QUADS = tuple(combinations(range(DIM), 4))            # 15 basis 4-vectors
PAIRS6 = tuple(combinations(range(DIM), 2))           # 15 basis bivectors
TRIPLE_INDEX = {t: i for i, t in enumerate(TRIPLES)}
QUAD_INDEX = {q: i for i, q in enumerate(QUADS)}


def perm_sign(seq):
    """Sign of the permutation sorting seq; 0 if entries repeat."""
    seq = list(seq)
    if len(set(seq)) != len(seq):
        return 0
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


# The wedge pairing as a Gram matrix: e_I ^ e_J = PAIRING[I][J] e_123456.
PAIRING = [[perm_sign(s + t) for t in TRIPLES] for s in TRIPLES]


def symplectic_pairing(a, b) -> Fraction:
    """Coefficient of e1^...^e6 in a ^ b; bilinear and antisymmetric."""
    return linalg.restrict_gram(PAIRING, [a, b])[0][1]


def basis_trivector(i, j, k):
    v = [Fraction(0)] * 20
    s = perm_sign((i, j, k))
    if s == 0:
        return v
    v[TRIPLE_INDEX[tuple(sorted((i, j, k)))]] = Fraction(s)
    return v


def _int_trivector(u, v, w):
    """u ^ v ^ w for integer vectors: the 3x3 minors, in TRIPLES order."""
    return [u[i] * (v[j] * w[k] - v[k] * w[j])
            - u[j] * (v[i] * w[k] - v[k] * w[i])
            + u[k] * (v[i] * w[j] - v[j] * w[i])
            for (i, j, k) in TRIPLES]


def trivector_from_vectors(u, v, w):
    """Coordinates of u ^ v ^ w in the lexicographic trivector basis: the
    3x3 minors of the integer-scaled rows, divided once."""
    den, (u, v, w) = linalg.scaled_int_rows((fvec(u), fvec(v), fvec(w)))
    den = den ** 3
    return [Fraction(x, den) for x in _int_trivector(u, v, w)]


def wedge_vector_trivector(v, t):
    """v ^ t in the lexicographic 4-vector basis (15 coordinates)."""
    v, t = fvec(v), fvec(t)
    out = [Fraction(0)] * len(QUADS)
    for i in range(DIM):
        if v[i] == 0:
            continue
        for idx, tri in enumerate(TRIPLES):
            if t[idx] == 0 or i in tri:
                continue
            s = perm_sign((i,) + tri)
            out[QUAD_INDEX[tuple(sorted((i,) + tri))]] += s * v[i] * t[idx]
    return out


def wedge_bivector_basis(v):
    """Spanning rows of v ^ Lambda^2 V inside Lambda^3 V: the 15 products
    v ^ e_i ^ e_j, not reduced (rank 10 for v != 0)."""
    return [trivector_from_vectors(v, _unit(i), _unit(j)) for (i, j) in PAIRS6]


class Subspace3:
    """A 3-dimensional subspace of V, stored as a reduced 3x6 matrix."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        m = linalg.row_basis(linalg.fmat(rows))
        if len(m) != 3:
            raise ValueError("expected rank 3, got %d" % len(m))
        self.rows = m

    def __eq__(self, other):
        return isinstance(other, Subspace3) and self.rows == other.rows

    def __repr__(self):
        return "Subspace3(%r)" % (self.rows,)

    def contains_vector(self, v):
        return rank(stack(self.rows, [fvec(v)])) == 3

    def top_wedge(self):
        """Coordinates of Lambda^3 W (one generator)."""
        return trivector_from_vectors(*self.rows)

    def wedge2_wedge_v_basis(self):
        """Spanning rows of Lambda^2 W ^ V (a 10-dimensional space): the 18
        products w_a ^ w_b ^ e_k, not reduced."""
        w = self.rows
        return [trivector_from_vectors(w[a], w[b], _unit(k))
                for (a, b) in combinations(range(3), 2) for k in range(DIM)]


class LagrangianFrame:
    """A Lagrangian 10-space of Lambda^3 V: reduced-echelon 10x20 matrix."""

    __slots__ = ("matrix",)

    def __init__(self, rows):
        m = linalg.row_basis(linalg.fmat(rows))
        if len(m) != 10:
            raise ValueError("expected rank 10, got %d" % len(m))
        if not _isotropic(m):
            raise ValueError("subspace is not isotropic for the wedge pairing")
        self.matrix = m

    def __eq__(self, other):
        return isinstance(other, LagrangianFrame) and self.matrix == other.matrix

    def __repr__(self):
        return "LagrangianFrame(<10x20>)"

    @property
    def rows(self):
        return self.matrix

    def contains(self, trivector):
        return rank(stack(self.matrix, [fvec(trivector)])) == 10


def _isotropic(rows):
    return not any(any(row) for row in linalg.restrict_gram(PAIRING, rows))


def is_lagrangian(rows) -> bool:
    """True iff the rows span a 10-space on which the wedge pairing vanishes."""
    m = linalg.row_basis(linalg.fmat(rows))
    return len(m) == 10 and _isotropic(m)


def degeneracy_dim(a: LagrangianFrame, v) -> int:
    """dim(A ∩ (v ^ Lambda^2 V)) = 20 - rank [A; v ^ e_i ^ e_j]; the point
    [v] lies in Y_A[k] iff k <= this."""
    v = fvec(v)
    if all(x == 0 for x in v):
        raise ValueError("zero vector has no degeneracy dimension")
    return 20 - rank(stack(a.matrix, wedge_bivector_basis(v)))


def decompose_trivector(t):
    """W with t in Lambda^3 W, or None if t is not decomposable."""
    t = fvec(t)
    if all(x == 0 for x in t):
        raise ValueError("zero trivector")
    cols = [wedge_vector_trivector(_unit(i), t) for i in range(DIM)]
    sysm = [[cols[i][r] for i in range(DIM)] for r in range(len(QUADS))]
    ker = linalg.nullspace(sysm)
    if len(ker) != 3:
        return None
    w = Subspace3(ker)
    top = w.top_wedge()
    # t must be proportional to the top wedge of the kernel
    if rank([top, t]) != 1:
        return None
    return w


def _unit(i):
    v = [Fraction(0)] * DIM
    v[i] = Fraction(1)
    return v


def theta_contains(a: LagrangianFrame, w: Subspace3) -> bool:
    """Whether Lambda^3 W is contained in A (the Theta_A condition)."""
    return a.contains(w.top_wedge())


def sigma_level(a: LagrangianFrame, w: Subspace3):
    """(theta, level): theta = Lambda^3 W ⊂ A, level = dim(A ∩ (Λ²W ∧ V)).

    (W, A) has sigma level >= d+1 exactly when theta holds and
    level >= d+1.
    """
    level = 20 - rank(stack(a.matrix, w.wedge2_wedge_v_basis()))
    return theta_contains(a, w), level


def dual_membership(a: LagrangianFrame, e_rows) -> bool:
    """Whether the 5-space E satisfies (Lambda^3 E) ∩ A != 0.

    This is membership of E in the dual degeneracy locus.  The ten
    products of a basis of E span Lambda^3 E, of dimension 10, so the
    intersection is nonzero exactly when [A; those rows] has rank < 20.
    """
    em = linalg.row_basis(linalg.fmat(e_rows))
    if len(em) != 5:
        raise ValueError("E must have rank 5")
    tri = [trivector_from_vectors(*t) for t in combinations(em, 3)]
    return rank(stack(a.matrix, tri)) < 20


def curve_membership(a: LagrangianFrame, w: Subspace3, wvec) -> bool:
    """Pointwise support test for the curve inside P(W): degeneracy >= 2."""
    wvec = fvec(wvec)
    if not w.contains_vector(wvec):
        raise ValueError("point is not in W")
    if not theta_contains(a, w):
        raise ValueError("Lambda^3 W is not contained in A")
    return degeneracy_dim(a, wvec) >= 2


def bscript_membership(a: LagrangianFrame, w: Subspace3, known_theta, wvec) -> bool:
    """Bad-locus test at [w] relative to a caller-supplied list of Theta planes.

    True if some supplied W' != W contains the point, or if
    dim(A ∩ (w ^ Λ²V) ∩ (Λ²W ∧ V)) >= 2 (checked exactly).
    """
    wvec = fvec(wvec)
    for wp in known_theta:
        if wp == w:
            continue
        if wp.contains_vector(wvec):
            return True
    first = linalg.intersect_rowspaces(a.matrix, wedge_bivector_basis(wvec))
    if len(first) < 2:
        return False
    triple = linalg.intersect_rowspaces(first, w.wedge2_wedge_v_basis())
    return len(triple) >= 2


def curve_smooth_at(a: LagrangianFrame, w: Subspace3, known_theta, v0) -> bool:
    """Smooth-curve criterion at [v0]: degeneracy exactly 2 and off the bad locus."""
    v0 = fvec(v0)
    if not w.contains_vector(v0):
        raise ValueError("point is not in W")
    if not theta_contains(a, w):
        raise ValueError("Lambda^3 W is not contained in A")
    if degeneracy_dim(a, v0) != 2:
        return False
    return not bscript_membership(a, w, known_theta, v0)


# ---------------------------------------------------------------------
# Graph Lagrangians over a chart basis
# ---------------------------------------------------------------------

PAIRS5 = tuple(combinations(range(5), 2))     # bivector index order for Λ²V0
TRIPLES5 = tuple(combinations(range(5), 3))   # trivector index order for Λ³V0
PAIR5_INDEX = {p: i for i, p in enumerate(PAIRS5)}


# The chart pairing P[k][j] = vol0(gamma_k ^ beta_j) is a signed
# permutation: trivector k pairs only with the bivector on its complement
# j = pi(k), with sign s_k.  _P5[k] = (pi(k), s_k).
_P5 = []
for _t in TRIPLES5:
    _c = tuple(i for i in range(5) if i not in _t)
    _P5.append((PAIR5_INDEX[_c], perm_sign(_t + _c)))


def pluecker_coefficient_matrices():
    """B[a][i][j] = vol0(c_a ^ beta_i ^ beta_j): constant sign data.

    The Gram matrix of the variable quadratic form at v = sum t_a c_a is
    sum_a t_a B[a]; this depends only on index combinatorics, not on the
    actual chart vectors.
    """
    mats = []
    for a in range(5):
        m = [[Fraction(0)] * 10 for _ in range(10)]
        for i, p in enumerate(PAIRS5):
            for j, q in enumerate(PAIRS5):
                seq = (a,) + p + q
                if len(set(seq)) == 5:
                    m[i][j] = Fraction(perm_sign(seq))
        mats.append(m)
    return mats


_B5 = pluecker_coefficient_matrices()


def chart_trivectors(v0, cbasis):
    """The chart basis of Lambda^3 V as integer rows (first, second): the ten
    v0 ^ c_p ^ c_q in PAIRS5 order and the ten c_i ^ c_j ^ c_k (a basis of
    Lambda^3 V0) in TRIPLES5 order, for v0 and cbasis scaled to integers by
    one lcm L, so all twenty carry the same factor L^3.  Raises ValueError
    unless v0 and cbasis are six vectors of V that span it, i.e. unless the
    twenty are a basis."""
    _, rows = linalg.scaled_int_rows([v0] + list(cbasis))
    if len(rows) != DIM or any(len(r) != DIM for r in rows):
        raise ValueError("v0 and the chart basis must be %d vectors of %d coordinates" % (DIM, DIM))
    if int_det(rows) == 0:
        raise ValueError("v0 and the chart basis do not span V")
    v0, *c = rows
    first = [_int_trivector(v0, c[p], c[q]) for (p, q) in PAIRS5]
    second = [_int_trivector(c[i], c[j], c[k]) for (i, j, k) in TRIPLES5]
    return first, second


def lagrangian_from_graph_basis(v0, cbasis, gram) -> LagrangianFrame:
    """The graph Lagrangian {v0 ^ alpha + q(alpha)} for a symmetric Gram matrix.

    cbasis: five vectors spanning a complement of [v0]; gram: 10x10
    symmetric matrix of the quadratic form on Lambda^2 V0 in the
    lexicographic pair basis, through the vol0 identification.  Row i
    of the graph is first[i] + sum_k T[i][k] second[k] with T = G P^t,
    i.e. T[i][k] = s_k G[i][pi(k)]; with G scaled to integers by L it is
    built as L first[i] + sum_k s_k (L G)[i][pi(k)] second[k], the same
    row times L, so the row space is unchanged.
    """
    if len(gram) != 10:
        raise ValueError("Gram matrix must be 10x10, got %d rows" % len(gram))
    den, g = linalg.scaled_int_rows(gram)
    if not linalg.is_symmetric(g):
        raise ValueError("Gram matrix must be symmetric (otherwise the graph is not Lagrangian)")
    first, second = chart_trivectors(v0, cbasis)
    rows = []
    for gi, f in zip(g, first):
        row = [den * x for x in f]
        for (j, s), sec in zip(_P5, second):
            if gi[j]:
                c = s * gi[j]
                row = [x + c * y for x, y in zip(row, sec)]
        rows.append(row)
    return LagrangianFrame(rows)


def lagrangian_from_graph(chart, gram) -> LagrangianFrame:
    """Graph Lagrangian over an existing chart (its center and basis)."""
    return lagrangian_from_graph_basis(chart.v0, chart.basis, gram)


def graph_gram(a: LagrangianFrame, v0, cbasis):
    """Extract the symmetric Gram matrix of A as a graph over the chart.

    Inverse of lagrangian_from_graph_basis.  Raises ValueError if v0 and
    cbasis do not span V, or if Lambda^3 V0 meets A (A is then not a
    graph in this chart).  One integer solve: the graph rows first_i +
    sum_k T_ik second_k lie in A, so each first_i is a combination of the
    rows of A minus sum_k T_ik second_k.  Solving [A; second]^t against
    first^t gives det * (combination; -T_i) in column i, and det = 0
    exactly when Lambda^3 V0 meets A.  G = T P: entry (i, pi(k)) of G is
    s_k T[i][k].
    """
    first, second = chart_trivectors(v0, cbasis)
    _, rows = linalg.scaled_int_rows(a.matrix)
    det, y = bareiss_solve(linalg.transpose(rows + second), linalg.transpose(first))
    if det == 0:
        raise ValueError("Lambda^3 V0 meets A: chart is not transversal")
    cols = sorted((j, k, s) for k, (j, s) in enumerate(_P5))
    # column i of the last ten rows of y is -det * T_i
    g = [[Fraction(-s * ti[k], det) for _, k, s in cols] for ti in zip(*y[10:])]
    if not linalg.is_symmetric(g):
        raise AssertionError("extracted Gram is not symmetric; sign conventions broken")
    return g


def apply_gl6_trivector(g6, t):
    """Push a trivector through the basis substitution e_i -> row i of g6."""
    rows = linalg.fmat(g6)
    t = fvec(t)
    out = [Fraction(0)] * 20
    for idx, (i, j, k) in enumerate(TRIPLES):
        if t[idx] == 0:
            continue
        img = trivector_from_vectors(rows[i], rows[j], rows[k])
        out = [x + t[idx] * y for x, y in zip(out, img)]
    return out


def apply_gl6_frame(g6, a: LagrangianFrame) -> LagrangianFrame:
    return LagrangianFrame([apply_gl6_trivector(g6, r) for r in a.matrix])


# ---------------------------------------------------------------------
# Seeded samplers
# ---------------------------------------------------------------------

COEFF_BOX = 5  # sampler coefficients are uniform in [-5, 5]


def _rand_coeff(rng):
    """One sampler coefficient, an int uniform in [-COEFF_BOX, COEFF_BOX]:
    the one _randbelow(2 COEFF_BOX + 1) call of randint(-COEFF_BOX,
    COEFF_BOX), without its argument checks."""
    return rng.randrange(2 * COEFF_BOX + 1) - COEFF_BOX


def random_symmetric(rng, n, invertible=False):
    """A random symmetric n x n matrix of ints in [-COEFF_BOX, COEFF_BOX],
    drawn row by row on and above the diagonal; with invertible, drawn
    again until its rank is n."""
    while True:
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = _rand_coeff(rng)
        if not invertible or rank(g) == n:
            return g


def random_vector(rng, n, nonzero=False):
    """A random vector of n ints in [-COEFF_BOX, COEFF_BOX]; with nonzero,
    drawn again until some entry is nonzero."""
    while True:
        v = [_rand_coeff(rng) for _ in range(n)]
        if not nonzero or any(v):
            return v


def random_unimodular(rng, n):
    """(P, P^-1) for P a seeded product of integer elementary operations,
    row i += c row j with c uniform in [-COEFF_BOX, COEFF_BOX]: one for
    every i > j, then one for every i < j.  P^-1 is the reversed product
    of their inverses, built alongside: each row operation on P is the
    column operation column j -= c column i on P^-1.  Both are integer
    matrices and det P = 1, so no solve is needed."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in p]
    for i, j in ([(i, j) for i in range(n) for j in range(i)]
                 + [(i, j) for i in range(n) for j in range(i + 1, n)]):
        c = _rand_coeff(rng)
        if c:
            p[i] = [x + c * y for x, y in zip(p[i], p[j])]
            for row in inv:
                row[j] -= c * row[i]
    return p, inv


def standard_chart_basis():
    """v0 = e1 and V0 = span(e2..e6)."""
    return _unit(0), [_unit(i) for i in range(1, 6)]


def random_graph_lagrangian(rng, corank=0):
    """Graph Lagrangian over the standard chart with prescribed Gram corank.

    Returns (frame, gram).  corank = degeneracy dimension at the chart
    center.
    """
    v0, c = standard_chart_basis()
    if corank == 0:
        g = random_symmetric(rng, 10, invertible=True)
    else:
        g = symmetric_with_kernel(rng, 10, [random_vector(rng, 10) for _ in range(corank)])
    return lagrangian_from_graph_basis(v0, c, g), g


def symmetric_with_kernel(rng, n, kernel_rows):
    """Random symmetric n x n matrix whose kernel is exactly span(kernel_rows).

    The matrix is C^t S C with S a random invertible symmetric matrix and
    the rows of C the canonical basis of Ann(span kernel_rows) (nullspace
    of the kernel rows).  C^t is injective and ker C = span(kernel_rows),
    so every draw has exactly that kernel.  It is the integer rows of
    scaled_symmetric_with_kernel divided by their scale, only when the
    scale is not 1, so it is a matrix of ints unless C has denominators.
    """
    den, g = scaled_symmetric_with_kernel(rng, n, kernel_rows)
    if den == 1:
        return g
    return [[Fraction(x, den) for x in row] for row in g]


def scaled_symmetric_with_kernel(rng, n, kernel_rows):
    """(D^2, D^2 G) for G the draw of symmetric_with_kernel, from the same
    randomness.  The rows of C are the primitive integer kernel rows w of
    one _gauss_jordan, divided by their free coordinates w[j]; with D the
    lcm of those, int_gram forms D^2 C^t S C on the integer rows D C.
    Without kernel rows (or only zero ones) G is an invertible
    random_symmetric and the scale is 1.
    """
    cols = len(kernel_rows[0]) if kernel_rows else n
    a, pivots = linalg._gauss_jordan(linalg.scaled_int_rows(kernel_rows)[1], cols)
    if not pivots:
        return 1, random_symmetric(rng, n, invertible=True)
    ann = linalg._kernel(a, pivots, cols)
    smat = random_symmetric(rng, n - len(pivots), invertible=True)
    den = lcm(*(w[j] for j, w in ann))
    # the rows of D C^t: n of them, also when C has none
    return den * den, int_gram(smat, [[w[i] * (den // w[j]) for j, w in ann] for i in range(n)])


class ConstraintError(RuntimeError):
    """Raised when a sampler cannot satisfy its constraints."""


def lagrangian_containing(w: Subspace3, level=1, extra_theta=(), seed=0):
    """Seeded Lagrangian A with Lambda^3 W ⊂ A and sigma level exactly `level`.

    extra_theta: at most one further 3-space W' with dim(W ∩ W') = 1; its
    top wedge is built into A as well.  Deterministic for a fixed seed;
    every returned frame is re-verified with sigma_level.
    """
    if level not in (1, 2, 3):
        raise ValueError("level must be 1, 2 or 3")
    extra_theta = list(extra_theta)
    if len(extra_theta) > 1:
        raise ConstraintError("at most one extra Theta plane is supported")
    rng = random.Random(seed)

    # chart center: a point of W (in W ∩ W' when W' is given)
    if extra_theta:
        wp = extra_theta[0]
        inter = linalg.intersect_rowspaces(w.rows, wp.rows)
        if len(inter) != 1:
            raise ConstraintError("W and W' must meet in a line")
        v0 = inter[0]
    else:
        v0 = w.rows[0]

    # complete v0 to a basis of W, then W' directions, then coordinate fill
    wbasis = [v0]
    for r in w.rows:
        if rank(stack(wbasis, [r])) > len(wbasis):
            wbasis.append(r)
    c = wbasis[1:]  # c1, c2 span W ∩ V0
    if extra_theta:
        for r in extra_theta[0].rows:
            if rank(stack([v0], c, [r])) > 1 + len(c):
                c.append(r)
        if len(c) != 4:
            raise ConstraintError("unexpected degeneration of W + W'")
    for i in range(DIM):
        if len(c) == 5:
            break
        if rank(stack([v0], c, [_unit(i)])) > 1 + len(c):
            c.append(_unit(i))

    # Gram constraints in the lexicographic pair basis over c1..c5:
    # pairs containing c1 or c2 occupy the first seven slots.
    for _ in range(100):
        kernel7 = [[Fraction(1)] + [Fraction(0)] * 6]
        for _ in range(level - 1):
            kernel7.append(random_vector(rng, 7))
        if rank(kernel7) != level:
            continue
        g77 = symmetric_with_kernel(rng, 7, kernel7)
        g = [[Fraction(0)] * 10 for _ in range(10)]
        for i in range(7):
            for j in range(7):
                g[i][j] = g77[i][j]
        for i in range(7, 10):
            for j in range(1, 7):
                g[i][j] = g[j][i] = _rand_coeff(rng)
        for i in range(7, 10):
            for j in range(i, 10):
                g[i][j] = g[j][i] = _rand_coeff(rng)
        if extra_theta:
            idx = PAIR5_INDEX[(2, 3)]  # bivector c3 ^ c4 spans Λ²(W' ∩ V0)
            for t in range(10):
                g[idx][t] = g[t][idx] = Fraction(0)
        frame = lagrangian_from_graph_basis(v0, c, g)
        theta, lv = sigma_level(frame, w)
        if not theta or lv != level:
            continue
        if extra_theta and not theta_contains(frame, extra_theta[0]):
            continue
        return frame
    raise ConstraintError("sampler failed after 100 attempts")
