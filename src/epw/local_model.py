"""Local determinantal models of the degeneracy sextic.

A chart at a point [v0] is a transversal 5-space V0 with an ordered
basis; through the volume identification of Lambda^3 V0 with the dual of
Lambda^2 V0 the Lagrangian becomes the graph of a symmetric quadratic
form q_A, the moving point contributes the variable quadratic form q_v,
and the local equation of the degeneracy locus is det(q_A + q_v), a
polynomial in the five chart coordinates.

Its degree is bounded by a certificate, not assumed.  The Gram of q_v
is the pencil M(t) = sum_a t_a B_a of universal sign matrices, and the
degree-d part of det(G + M(t)) is a sum of d x d minors of M(t) times
constant minors of G, so deg det(G + M(t)) <= rank M(t) over Q(t).
pencil_rank_bound() certifies rank M(t) <= r exactly (r = 6): it solves
M(t) K(t) = 0 for kernel vectors K(t) linear in t, and the rank of their
span at one rational point bounds the kernel dimension from below.  The
determinants are interpolated at that bound from integer evaluations of
one integer-scaled pencil (LocalPencil).

The Schur complement of the nondegenerate block of q_A is kept as an
exact pair (M_hat, D) with M_J = M_hat / D; the analytic square root
factorization that motivates it is replaced by the polynomial identity

    det(q_A + q_v) * D^(k-1) = det(M_hat),   k = dim ker q_A,

which is checked exactly.  The double cover above the chart is cut out
by M_hat * xi and D^(k-1) * xi xi^t - cof(M_hat).
"""

from fractions import Fraction
import random

from . import linalg, wedge
from .linalg import fvec, rank, scaled_int_rows, scaled_ints, stack
from .poly import MultiPoly, homogeneous_part, is_homogeneous, \
    div_exact, squarefree_part, quadratic_form_rank
from .polymat import PolyMatrix, det_poly_matrix, interpolate_poly_map
from .zlinalg import bareiss_solve, int_adjugate, int_det

CHART_VARS = ("t1", "t2", "t3", "t4", "t5")


class ChartError(RuntimeError):
    """No transversal complement found: possible pathology (the dual
    degeneracy locus may be the whole projective space)."""


class Chart:
    """A point [v0], a transversal basis c1..c5, and the derived Gram data."""

    __slots__ = ("v0", "basis", "gram_form", "gram_moving")

    def __init__(self, frame: wedge.LagrangianFrame, v0, basis):
        self.v0 = fvec(v0)
        self.basis = [fvec(c) for c in basis]
        if rank(stack([self.v0], self.basis)) != 6:
            raise ValueError("v0 plus basis must span V")
        # raises if Lambda^3 V0 meets A
        self.gram_form = wedge.graph_gram(frame, self.v0, self.basis)
        self.gram_moving = moving_gram_matrix()

    def gram_at(self, tvals):
        """Numeric Gram of the local pencil at chart coordinates t.

        An element v0 ^ alpha + q~(alpha) of the graph lies over the point
        [v0 + v] exactly when q~(alpha) = v ^ alpha, so the pencil whose
        corank computes the degeneracy dimension is G_A minus the moving
        Pluecker Gram of v.
        """
        qv = wedge.pluecker_gram_numeric(tvals)
        return linalg.mat_sub(self.gram_form, qv)

    def kernel(self):
        """Canonical basis of ker q_A (bivector coordinates)."""
        return linalg.nullspace(self.gram_form)

    def corank(self):
        return 10 - rank(self.gram_form)


_MOVING_GRAM = None
_RANK_BOUND = None
# Any rational point gives a valid certificate; a generic one gives the
# sharpest.
_CERT_POINT = (1, 2, 3, 5, 8)


def moving_int_matrices():
    """The five integer matrices -B_a of the moving pencil, from wedge._B5."""
    return [[[-int(x) for x in row] for row in b] for b in wedge._B5]


def moving_gram_matrix() -> PolyMatrix:
    """10x10 symbolic Gram of the moving part of the local pencil.

    Entries are linear in t1..t5; the sign is the one that makes
    corank(gram_form + moving(t)) equal to the degeneracy dimension at
    the chart point [v0 + sum t_a c_a].  Universal sign data, shared by
    every chart.
    """
    global _MOVING_GRAM
    if _MOVING_GRAM is None:
        entries = []
        for rows in zip(*moving_int_matrices()):
            row = []
            for coeffs in zip(*rows):
                terms = {}
                for a, c in enumerate(coeffs):
                    if c:
                        e = [0] * 5
                        e[a] = 1
                        terms[tuple(e)] = c
                row.append(MultiPoly(CHART_VARS, terms))
            entries.append(row)
        _MOVING_GRAM = PolyMatrix(entries)
    return _MOVING_GRAM


def pencil_rank_bound() -> int:
    """Certified bound r >= rank over Q(t) of M(t) = sum_a t_a B_a.

    M(t) K(t) = 0 for K(t) = sum_a t_a K_a exactly when
    B_a K_b + B_b K_a = 0 for all a <= b, a linear system over Q.  The
    values at one rational point t0 of its solutions lie in ker M(t0)
    and span a space of dimension r0; a rank over Q(t) is at least the
    rank at any specialization, so dim ker M(t) >= r0 and r = 10 - r0.
    Computed on first use and cached for the process.
    """
    global _RANK_BOUND
    if _RANK_BOUND is None:
        bs = wedge._B5
        n = len(bs[0])
        rows = []
        for a in range(5):
            for b in range(a, 5):
                for i in range(n):
                    row = [Fraction(0)] * (5 * n)
                    for j in range(n):
                        row[n * b + j] += bs[a][i][j]
                        row[n * a + j] += bs[b][i][j]
                    rows.append(row)
        values = [[sum(t * sol[n * a + j] for a, t in enumerate(_CERT_POINT))
                   for j in range(n)] for sol in linalg.nullspace(rows)]
        _RANK_BOUND = n - rank(values)
    return _RANK_BOUND


class LocalPencil:
    """Integer-scaled evaluations of a pencil G + sum_a t_a M_a.

    G is a constant rational matrix and the M_a are integer matrices.
    at(t) returns (s, m) with m = s * (G + sum_a t_a M_a) an integer
    matrix, where s = den(G) * lcm(denominators of t); on the integer
    interpolation grid s is den(G).  local_sextic, schur_complement and
    the off-grid checks evaluate through this one class.
    """

    __slots__ = ("den", "base", "moves")

    def __init__(self, gram, moves):
        self.den, self.base = scaled_int_rows(gram)
        self.moves = [[(i, j, c) for i, row in enumerate(m) for j, c in enumerate(row) if c]
                      for m in moves]

    @classmethod
    def of_chart(cls, chart):
        """The chart pencil G_A - sum_a t_a B_a of det(q_A + q_v)."""
        return cls(chart.gram_form, moving_int_matrices())

    def at(self, pt):
        q, qt = scaled_ints(pt)
        m = [[x * q for x in row] for row in self.base]
        for t, move in zip(qt, self.moves):
            if t:
                ts = t * self.den
                for i, j, c in move:
                    m[i][j] += ts * c
        return self.den * q, m

    def det(self, pt):
        """Exact determinant of the pencil at a rational point."""
        s, m = self.at(pt)
        return Fraction(int_det(m), s ** len(m))


def _interpolated_det(pencil: LocalPencil) -> MultiPoly:
    """det of the pencil as a polynomial in t, interpolated at the
    certified degree bound pencil_rank_bound()."""
    return interpolate_poly_map(lambda pt: (pencil.det(pt),), CHART_VARS,
                                pencil_rank_bound(), 1)[0]


def make_chart(frame: wedge.LagrangianFrame, v0, seed=0, attempts=40) -> Chart:
    """Find a chart at [v0]: try coordinate complements, then seeded random ones."""
    v0 = fvec(v0)
    if all(x == 0 for x in v0):
        raise ValueError("v0 must be nonzero")
    tried = []
    for excl in range(6):
        if v0[excl] == 0:
            continue
        basis = [wedge._unit(i) for i in range(6) if i != excl]
        tried.append(basis)
    rng = random.Random(seed)
    while len(tried) < attempts:
        basis = [wedge.random_vector(rng, 6) for _ in range(5)]
        if rank(stack([v0], basis)) == 6:
            tried.append(basis)
    for basis in tried:
        if _transversal(frame, basis):
            return Chart(frame, v0, basis)
    raise ChartError(
        "no transversal V0 found in %d attempts: possible pathology "
        "(dual degeneracy locus equal to the whole dual space)" % len(tried)
    )


def _transversal(frame, basis):
    tri = [wedge.trivector_from_vectors(basis[i], basis[j], basis[k])
           for (i, j, k) in wedge.TRIPLES5]
    return rank(stack(frame.matrix, tri)) == 20


class LocalSextic:
    """det(q_A + q_v) in chart coordinates together with its graded pieces."""

    __slots__ = ("f", "parts")

    def __init__(self, f: MultiPoly):
        if f.degree() > 6:
            raise AssertionError(
                "local determinant has degree %d > 6; conventions are broken" % f.degree()
            )
        self.f = f
        self.parts = [homogeneous_part(f, i) for i in range(7)]

    def part(self, i):
        return self.parts[i]

    def degree(self):
        return self.f.degree()

    def is_pathological(self):
        return self.f.is_zero()


def local_sextic(frame: wedge.LagrangianFrame, chart: Chart, strategy="auto") -> LocalSextic:
    """The local equation det(q_A + q_v) of the degeneracy locus in the chart.

    The default route interpolates at the certified degree bound
    pencil_rank_bound() from integer determinants of the chart pencil.
    """
    if strategy in ("auto", "interpolate"):
        f = _interpolated_det(LocalPencil.of_chart(chart))
    else:
        const = PolyMatrix.from_scalar_matrix(chart.gram_form, CHART_VARS)
        m = const.add(chart.gram_moving)
        f = det_poly_matrix(m, strategy=strategy)
    return LocalSextic(f)


class TaylorReport:
    __slots__ = ("k", "theta_case", "checks")

    def __init__(self, k, theta_case, checks):
        self.k = k
        self.theta_case = theta_case
        self.checks = checks

    @property
    def ok(self):
        return all(passed for _, passed in self.checks)

    def lines(self):
        return ["%s %s" % ("PASS" if p else "FAIL", name) for name, p in self.checks]


def taylor_order_check(frame, chart, known_theta=(), sextic=None) -> TaylorReport:
    """Check the vanishing orders of the local equation at the chart center.

    With no supplied Theta plane through [v0]: f_0 = ... = f_{k-1} = 0 and
    f_k != 0, where k is the degeneracy dimension at [v0].  With some
    supplied W containing v0: f_0 = f_1 = 0.
    """
    k = wedge.degeneracy_dim(frame, chart.v0)
    ls = sextic if sextic is not None else local_sextic(frame, chart)
    through = [w for w in known_theta if w.contains_vector(chart.v0)
               and wedge.theta_contains(frame, w)]
    checks = []
    if through:
        checks.append(("f0 = 0 (plane case)", ls.part(0).is_zero()))
        checks.append(("f1 = 0 (plane case)", ls.part(1).is_zero()))
        return TaylorReport(k, True, checks)
    for i in range(min(k, 7)):
        checks.append(("f%d = 0" % i, ls.part(i).is_zero()))
    if k <= 6:
        checks.append(("f%d != 0" % k, not ls.part(k).is_zero()))
    return TaylorReport(k, False, checks)


def rank_f2(frame, w: wedge.Subspace3, known_theta, chart: Chart, sextic=None) -> int:
    """Rank of the quadratic Taylor term at a point of P(W) off the curve.

    Equals 4 - dim(A ∩ (Λ²W ∧ V)); a mismatch raises, since it would
    falsify the rank formula.
    """
    if not w.contains_vector(chart.v0):
        raise ValueError("chart center must lie in W")
    if not wedge.theta_contains(frame, w):
        raise ValueError("Lambda^3 W is not contained in A")
    if wedge.degeneracy_dim(frame, chart.v0) != 1:
        raise ValueError("chart center lies on the curve (degeneracy >= 2)")
    ls = sextic if sextic is not None else local_sextic(frame, chart)
    r = quadratic_form_rank(ls.part(2))
    _, level = wedge.sigma_level(frame, w)
    if r != 4 - level:
        raise AssertionError(
            "rank f2 = %d but 4 - level = %d; rank formula violated" % (r, 4 - level)
        )
    return r


# ---------------------------------------------------------------------
# Schur complement data and the double cover
# ---------------------------------------------------------------------


class SchurData:
    """Exact Schur reduction of q_A + q_v by the nondegenerate block.

    Fields: j_indices (coordinate bivectors spanning J), k_basis (rows
    spanning ker q_A), n_j (constant Gram block), the symbolic blocks
    q_j, r_j, p_j, the common denominator `denom` = det(N_J + Q_J), and
    m_hat with M_J = m_hat / denom.
    """

    __slots__ = ("k", "j_indices", "k_basis", "n_j", "q_j", "r_j", "p_j",
                 "denom", "m_hat", "adapted")

    def __init__(self, k, j_indices, k_basis, n_j, q_j, r_j, p_j, denom, m_hat, adapted):
        self.k = k
        self.j_indices = j_indices
        self.k_basis = k_basis
        self.n_j = n_j
        self.q_j = q_j
        self.r_j = r_j
        self.p_j = p_j
        self.denom = denom
        self.m_hat = m_hat
        self.adapted = adapted   # 10x10 change of basis (rows = adapted basis)


def _greedy_principal_block(g, target):
    """Indices of a nonsingular principal block of the given size, grown
    greedily one coordinate (or one coordinate pair) at a time."""
    n = len(g)
    chosen = []
    while len(chosen) < target:
        grew = False
        for i in range(n):
            if i in chosen:
                continue
            sub = chosen + [i]
            if linalg.det([[g[a][b] for b in sub] for a in sub]) != 0:
                chosen = sub
                grew = True
                break
        if grew:
            continue
        for i in range(n):
            if i in chosen:
                continue
            for j in range(i + 1, n):
                if j in chosen:
                    continue
                sub = chosen + [i, j]
                if linalg.det([[g[a][b] for b in sub] for a in sub]) != 0:
                    chosen = sub
                    grew = True
                    break
            if grew:
                break
        if not grew:
            raise AssertionError("rank bookkeeping is inconsistent")
    return chosen


def schur_complement(frame, chart: Chart, k_basis=None) -> SchurData:
    """Compute (M_hat, D) with M_J = M_hat / D in the adapted basis.

    k_basis optionally fixes the basis of ker q_A (rows in bivector
    coordinates), e.g. to put a decomposable kernel direction first;
    supplied rows are cleared of denominators.  The grid evaluations run
    on the integer-scaled congruent pencil C (G + M(t)) C^t: per point
    one fraction-free solve gives both det(N + Q) and adj(N + Q) R^t.

    Degree bound: D is a principal jdim-minor of the congruent pencil and
    each M_hat entry is a bordered (jdim + 1)-minor of it (the J rows and
    columns plus one kernel row and column).  The degree-d part of such a
    minor is a sum of d x d minors of C M(t) C^t, whose rank over Q(t) is
    that of M(t), so every entry has degree <= min(jdim + 1,
    pencil_rank_bound()), the bound the interpolation uses.
    """
    g = chart.gram_form
    kern = chart.kernel()
    k = len(kern)
    if k_basis is not None:
        kb = [fvec(r) for r in k_basis]
        if len(kb) != k or rank(kb) != k or rank(stack(kern, kb)) != k:
            raise ValueError("supplied kernel basis does not span ker q_A")
        kern = kb
    # integer adapted basis: coordinate bivectors of J, then the kernel
    j = _greedy_principal_block(g, 10 - k)
    adapted = []
    for i in j:
        row = [Fraction(0)] * 10
        row[i] = Fraction(1)
        adapted.append(row)
    for krow in kern:
        adapted.append([Fraction(x) for x in scaled_ints(krow)[1]])
    c = adapted
    gp = linalg.mat_mul(linalg.mat_mul(c, g), linalg.transpose(c))
    jdim = 10 - k
    n_j = [row[:jdim] for row in gp[:jdim]]
    for i in range(10):
        for jj in range(10):
            if (i >= jdim or jj >= jdim) and gp[i][jj] != 0:
                raise AssertionError("adapted Gram is not block diagonal")
    # moving Gram in the adapted basis: integer coefficient matrices per t_a
    ci = [[int(x) for x in row] for row in c]
    cb = []
    for ba in moving_int_matrices():
        tmp = [[sum(ci[i][t] * ba[t][s] for t in range(10)) for s in range(10)]
               for i in range(10)]
        cb.append([[sum(tmp[i][s] * ci[jj][s] for s in range(10)) for jj in range(10)]
                   for i in range(10)])

    def linear_block(r0, r1, c0, c1):
        entries = []
        for i in range(r0, r1):
            row = []
            for jj in range(c0, c1):
                terms = {}
                for a in range(5):
                    v = cb[a][i][jj]
                    if v:
                        e = [0] * 5
                        e[a] = 1
                        terms[tuple(e)] = Fraction(v)
                row.append(MultiPoly(CHART_VARS, terms))
            entries.append(row)
        return PolyMatrix(entries)

    q_j = linear_block(0, jdim, 0, jdim)
    p_j = linear_block(jdim, 10, jdim, 10) if k else None
    r_j = linear_block(jdim, 10, 0, jdim) if k else None
    pencil = LocalPencil(gp, cb)

    if k == 0:
        denom = _interpolated_det(pencil)
        return SchurData(0, j, [], n_j, q_j, r_j, p_j, denom, None, c)

    def oracle(pt):
        s, m = pencil.at(pt)
        nq = [row[:jdim] for row in m[:jdim]]
        r = [row[:jdim] for row in m[jdim:]]
        det, y = bareiss_solve(nq, list(zip(*r)))
        out = [Fraction(det, s ** jdim)]
        mscale = s ** (jdim + 1)
        if y is not None:
            # M_hat = det * P - R Y with N Y = det * R^t, scaled back by s
            for i in range(k):
                p = m[jdim + i]
                for jj in range(k):
                    v = det * p[jdim + jj] - sum(r[i][t] * y[t][jj] for t in range(jdim))
                    out.append(Fraction(v, mscale))
        else:
            adj = int_adjugate(nq)
            for i in range(k):
                for jj in range(k):
                    v = 0
                    for t in range(jdim):
                        for u in range(jdim):
                            v += r[i][t] * adj[t][u] * r[jj][u]
                    out.append(Fraction(-v, mscale))
        return out

    degree = min(jdim + 1, pencil_rank_bound())
    flat = interpolate_poly_map(oracle, CHART_VARS, degree, 1 + k * k)
    denom = flat[0]
    m_hat = PolyMatrix([[flat[1 + i * k + jj] for jj in range(k)] for i in range(k)])
    return SchurData(k, j, kern, n_j, q_j, r_j, p_j, denom, m_hat, c)


def schur_identity_check(frame, chart: Chart, sd: SchurData, sextic=None) -> bool:
    """det(q_A + q_v) * D^(k-1) == det(M_hat), as exact polynomials.

    Both sides live in the adapted basis; the left side is obtained from
    the chart determinant by the congruence scale det(C)^2.  For k = 0
    the identity degenerates to D == det(q_A + q_v).
    """
    ls = sextic if sextic is not None else local_sextic(frame, chart)
    scale = linalg.det(sd.adapted) ** 2
    f = ls.f * scale
    if sd.k == 0:
        return f == sd.denom
    lhs = f
    for _ in range(sd.k - 1):
        lhs = lhs * sd.denom
    # cofactor expansion: k <= 3, and it avoids large exact divisions
    rhs = det_poly_matrix(sd.m_hat, strategy="cofactor")
    return lhs == rhs


class DoubleCoverData:
    """Generators of the local double-cover ideal, denominators cleared."""

    __slots__ = ("k", "vars", "generators", "notice")

    def __init__(self, k, variables, generators, notice=""):
        self.k = k
        self.vars = variables
        self.generators = generators
        self.notice = notice


def double_cover_ideal(frame, chart: Chart, k_basis=None) -> DoubleCoverData:
    """Equations of the double cover over the chart, in t1..t5, xi1..xik.

    Generators: the k entries of M_hat * xi, then for i <= j the cleared
    fiber equations D^(k-1) * xi_i xi_j - cof(M_hat)_ij.  For k = 0 the
    cover is an unramified double sheet and the ideal is empty.

    Only the k(k+1)/2 cofactors the fiber equations use are computed:
    cof_ij = (-1)^(i+j) det(M_hat without row i and column j), which is
    1 at k = 1, a signed entry at k = 2 and a 2x2 determinant at k = 3.
    Each generator's terms are written directly in (t, xi): an M_hat_ij
    term at exponent e goes to e + unit_j, a D^(k-1) term to
    e + unit_i + unit_j and a cofactor term, negated, to e + 0.  The
    supports are disjoint, so no polynomial is added, lifted or
    re-validated.
    """
    sd = schur_complement(frame, chart, k_basis=k_basis)
    k = sd.k
    if k == 0:
        return DoubleCoverData(0, CHART_VARS, [],
                               "etale point: unramified double cover, empty ideal")
    if k > 3:
        raise ValueError("double cover model implemented for kernel dimension <= 3")
    evars = CHART_VARS + tuple("xi%d" % (i + 1) for i in range(k))
    m = sd.m_hat.entries
    one = MultiPoly.const(CHART_VARS, 1)
    dpow = one
    for _ in range(k - 1):
        dpow = dpow * sd.denom

    def minus_cofactor(i, j):
        if k == 1:
            return -one
        rows = [r for r in range(k) if r != i]
        cols = [c for c in range(k) if c != j]
        if k == 2:
            c = m[rows[0]][cols[0]]
        else:
            c = det_poly_matrix(PolyMatrix([[m[r][c] for c in cols] for r in rows]))
        return c if (i + j) % 2 else -c

    def xi_exp(*idx):
        x = [0] * k
        for i in idx:
            x[i] += 1
        return tuple(x)

    def generator(parts):
        out = MultiPoly.__new__(MultiPoly)
        out.vars = evars
        out.terms = {e + x: c for p, x in parts for e, c in p.terms.items()}
        return out

    gens = [generator([(m[i][j], xi_exp(j)) for j in range(k)]) for i in range(k)]
    for i in range(k):
        for j in range(i, k):
            gens.append(generator([(dpow, xi_exp(i, j)), (minus_cofactor(i, j), xi_exp())]))
    return DoubleCoverData(k, evars, gens)


# ---------------------------------------------------------------------
# Plane sextic singularity analyzer
# ---------------------------------------------------------------------


class SexticSingularity:
    __slots__ = ("multiplicity", "reduced", "consecutive_triple", "simple")

    def __init__(self, multiplicity, reduced, consecutive_triple):
        self.multiplicity = multiplicity
        self.reduced = reduced
        self.consecutive_triple = consecutive_triple
        self.simple = bool(
            reduced and multiplicity <= 3
            and not (multiplicity == 3 and consecutive_triple)
        )

    def as_dict(self):
        return {
            "multiplicity": self.multiplicity,
            "reduced": self.reduced,
            "consecutive_triple": self.consecutive_triple,
            "simple": self.simple,
        }


def sextic_singularity(f: MultiPoly, p) -> SexticSingularity:
    """Classify the singularity of a plane sextic at an on-curve point.

    multiplicity: lowest degree of the local Taylor expansion; reduced:
    no repeated component through p (global squarefree part as the
    certificate); consecutive_triple: for multiplicity 3, whether the
    strict transform in the blow-up keeps a triple point over p, checked
    in both charts; simple: the A-D-E condition.
    """
    if len(f.vars) != 3:
        raise ValueError("expected a polynomial in three variables")
    if f.is_zero() or not is_homogeneous(f, 6):
        raise ValueError("expected a nonzero homogeneous sextic")
    p = fvec(p)
    if len(p) != 3 or all(x == 0 for x in p):
        raise ValueError("point must be a nonzero projective triple")
    if f.evaluate(p) != 0:
        raise ValueError("point does not lie on the curve")

    piv = next(i for i in range(3) if p[i] != 0)
    others = [i for i in range(3) if i != piv]
    local_vars = ("x", "y")
    x = MultiPoly.var(local_vars, "x")
    y = MultiPoly.var(local_vars, "y")
    images = {}
    for i in range(3):
        img = MultiPoly.const(local_vars, p[i])
        if i == others[0]:
            img = img + x
        if i == others[1]:
            img = img + y
        images[f.vars[i]] = img
    g = f.substitute(images)

    mult = 0
    while mult <= 6 and homogeneous_part(g, mult).is_zero():
        mult += 1

    sf = squarefree_part(f)
    if sf.degree() == f.degree():
        reduced = True
    else:
        excess = div_exact(f, sf)
        reduced = excess.evaluate(p) != 0

    consecutive = False
    if mult == 3:
        consecutive = _has_consecutive_triple(g)
    return SexticSingularity(mult, reduced, consecutive)


def _binary_cube_root(g3: MultiPoly):
    """For a binary cubic: the linear form l with g3 = c * l^3, else None."""
    c30 = g3.coeff((3, 0))
    c21 = g3.coeff((2, 1))
    c12 = g3.coeff((1, 2))
    c03 = g3.coeff((0, 3))
    x = MultiPoly.var(g3.vars, g3.vars[0])
    y = MultiPoly.var(g3.vars, g3.vars[1])
    if c30 != 0:
        r = c21 / (3 * c30)
        cand = x + r * y
        if c30 * cand ** 3 == g3:
            return cand
        return None
    if c21 == 0 and c12 == 0 and c03 != 0:
        return y
    return None


def _has_consecutive_triple(g: MultiPoly) -> bool:
    """g has multiplicity 3 at the origin; does the strict transform keep a
    point of multiplicity 3 over it?"""
    g3 = homogeneous_part(g, 3)
    ell = _binary_cube_root(g3)
    if ell is None:
        return False  # three tangent directions are not all equal
    a = ell.coeff((1, 0))
    b = ell.coeff((0, 1))
    # tangent direction (x : y) with a x + b y = 0
    parts = [homogeneous_part(g, i) for i in range(3, g.degree() + 1)]
    tvar = ("t",)
    t = MultiPoly.var(tvar, "t")
    if a != 0:
        # direction (-b/a : 1): use the chart x = y (t + t0), exceptional y = 0
        t0 = -b / a
        sub = {g.vars[0]: t + t0, g.vars[1]: MultiPoly.const(tvar, 1)}
    else:
        # direction (1 : 0): chart y = x t, exceptional x = 0
        t0 = Fraction(0)
        sub = {g.vars[0]: MultiPoly.const(tvar, 1), g.vars[1]: t + t0}
    best = None
    for i, gi in enumerate(parts, start=3):
        if gi.is_zero():
            continue
        u = gi.substitute(sub)
        ordt = 0
        while ordt <= u.degree() and u.coeff((ordt,)) == 0:
            ordt += 1
        total = ordt + (i - 3)
        if best is None or total < best:
            best = total
    return best is not None and best >= 3
