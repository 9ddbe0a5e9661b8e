"""Local determinantal models of the degeneracy sextic.

A chart at a point [v0] is a transversal 5-space V0 with an ordered
basis; through the volume identification of Lambda^3 V0 with the dual of
Lambda^2 V0 the Lagrangian becomes the graph of a symmetric quadratic
form q_A, the moving point contributes the variable quadratic form q_v,
and the local equation of the degeneracy locus is det(q_A + q_v), a
polynomial in the five chart coordinates.  A Chart keeps the frame it
was built from and q_A as a varquad.QuadSpace, so every function here
takes the chart alone and reads k = dim ker q_A and the kernel off it.

Its degree is bounded by a certificate, not assumed.  The Gram of q_v
is the pencil M(t) = sum_a t_a B_a of universal sign matrices, and the
degree-d part of det(G + M(t)) is a sum of d x d minors of M(t) times
constant minors of G, so deg det(G + M(t)) <= rank M(t) over Q(t).
pencil_rank_bound() certifies rank M(t) <= r exactly (r = 6): it solves
M(t) K(t) = 0 for kernel vectors K(t) linear in t, and the rank of their
span at one rational point bounds the kernel dimension from below.  The
determinants are interpolated at that bound from integer evaluations of
one integer-scaled pencil (polymat.Pencil, built by chart_pencil).

The Schur complement of the nondegenerate block of q_A is kept as an
exact pair (M_hat, D) with M_J = M_hat / D, interpolated from one
partial Bareiss elimination per grid point: D is its last pivot and, by
Sylvester's identity, M_hat its trailing block of bordered minors.  The
analytic square root factorization that motivates it is replaced by the
polynomial identity

    det(q_A + q_v) * D^(k-1) = det(M_hat),   k = dim ker q_A,

which is checked exactly.  The double cover above the chart is cut out
by M_hat * xi and D^(k-1) * xi xi^t - cof(M_hat).
"""

from fractions import Fraction
from functools import cache
from itertools import chain, combinations
import random

from . import linalg, varquad, wedge
from .linalg import fvec, rank, restrict_gram, scaled_ints, stack
from .poly import MultiPoly, homogeneous_part, is_homogeneous, \
    div_exact, squarefree_part, quadratic_form_rank
from .polymat import Pencil, PolyMatrix, det_cofactor, det_poly_matrix, interpolate_poly_map
from .zlinalg import _eliminate, int_adjugate, int_det, int_gram

CHART_VARS = ("t1", "t2", "t3", "t4", "t5")


class ChartError(RuntimeError):
    """No transversal complement found: possible pathology (the dual
    degeneracy locus may be the whole projective space)."""


class Chart:
    """A frame A, a point [v0], a transversal basis c1..c5, and the form
    q_A; form.corank() is the degeneracy dimension at [v0]."""

    __slots__ = ("frame", "v0", "basis", "form")

    def __init__(self, frame: wedge.LagrangianFrame, v0, basis):
        self.frame = frame
        self.v0 = fvec(v0)
        self.basis = [fvec(c) for c in basis]
        # raises ValueError unless v0 and basis span V and Lambda^3 V0 ∩ A = 0
        self.form = varquad.QuadSpace(wedge.graph_gram(frame, self.v0, self.basis))


# Any rational point gives a valid certificate; a generic one gives the
# sharpest.
_CERT_POINT = (1, 2, 3, 5, 8)


def moving_int_matrices():
    """The five integer matrices -B_a of the moving pencil, from wedge._B5."""
    return [[[-int(x) for x in row] for row in b] for b in wedge._B5]


@cache
def pencil_rank_bound() -> int:
    """Certified bound r >= rank over Q(t) of M(t) = sum_a t_a B_a.

    M(t) K(t) = 0 for K(t) = sum_a t_a K_a exactly when
    B_a K_b + B_b K_a = 0 for all a <= b, a linear system over Q.  The
    values at one rational point t0 of its solutions lie in ker M(t0)
    and span a space of dimension r0; a rank over Q(t) is at least the
    rank at any specialization, so dim ker M(t) >= r0 and r = 10 - r0.
    Computed on first use and cached for the process.
    """
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
    return n - rank(values)


def chart_pencil(chart) -> Pencil:
    """The chart pencil G_A - sum_a t_a B_a of det(q_A + q_v).

    An element v0 ^ alpha + q~(alpha) of the graph lies over the point
    [v0 + v] exactly when q~(alpha) = v ^ alpha, so the pencil whose
    corank computes the degeneracy dimension is G_A minus the moving
    Pluecker Gram of v.  The moves are integers, so at(t) on the integer
    grid is den(G_A) times the pencil.
    """
    return Pencil(chart.form.gram, moving_int_matrices())


def make_chart(frame: wedge.LagrangianFrame, v0, seed=0, attempts=40) -> Chart:
    """Find a chart at [v0]: try coordinate complements, then seeded random
    ones, and keep the first whose Lambda^3 V0 meets A only in 0."""
    v0 = fvec(v0)
    if len(v0) != 6:
        raise ValueError("v0 must have 6 coordinates, got %d" % len(v0))
    if all(x == 0 for x in v0):
        raise ValueError("v0 must be nonzero")
    tried = 0
    for basis in _complements(v0, seed, attempts):
        tried += 1
        try:
            return Chart(frame, v0, basis)
        except ValueError:  # Lambda^3 V0 meets A
            continue
    raise ChartError(
        "no transversal V0 found in %d attempts: possible pathology "
        "(dual degeneracy locus equal to the whole dual space)" % tried
    )


def _complements(v0, seed, attempts):
    """Bases of complements of [v0], drawn as they are tried: the coordinate
    ones, then seeded random ones up to `attempts` bases in all."""
    count = 0
    for excl in range(6):
        if v0[excl] != 0:
            count += 1
            yield [wedge._unit(i) for i in range(6) if i != excl]
    rng = random.Random(seed)
    while count < attempts:
        basis = [wedge.random_vector(rng, 6) for _ in range(5)]
        if rank(stack([v0], basis)) == 6:
            count += 1
            yield basis


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


def local_sextic(chart: Chart) -> LocalSextic:
    """The local equation det(q_A + q_v) of the degeneracy locus in the chart,
    interpolated at the certified degree bound pencil_rank_bound() from
    integer determinants of the chart pencil.
    """
    return LocalSextic(chart_pencil(chart).det_poly(CHART_VARS, pencil_rank_bound()))


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


def taylor_order_check(chart: Chart, known_theta=()) -> TaylorReport:
    """Check the vanishing orders of the local equation at the chart center.

    With no supplied Theta plane through [v0]: f_0 = ... = f_{k-1} = 0 and
    f_k != 0, where k = corank q_A is the degeneracy dimension at [v0].
    With some supplied W containing v0: f_0 = f_1 = 0.
    """
    k = chart.form.corank()
    ls = local_sextic(chart)
    through = [w for w in known_theta if w.contains_vector(chart.v0)
               and wedge.theta_contains(chart.frame, w)]
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


def rank_f2(chart: Chart, w: wedge.Subspace3) -> int:
    """Rank of the quadratic Taylor term at a point of P(W) off the curve.

    Equals 4 - dim(A ∩ (Λ²W ∧ V)); a mismatch raises, since it would
    falsify the rank formula.
    """
    if not w.contains_vector(chart.v0):
        raise ValueError("chart center must lie in W")
    if not wedge.theta_contains(chart.frame, w):
        raise ValueError("Lambda^3 W is not contained in A")
    if chart.form.corank() != 1:
        raise ValueError("chart center lies on the curve (degeneracy >= 2)")
    r = quadratic_form_rank(local_sextic(chart).part(2))
    _, level = wedge.sigma_level(chart.frame, w)
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

    Fields: j_indices (coordinate bivectors spanning J), the common
    denominator `denom` = det(N_J + Q_J), and m_hat with
    M_J = m_hat / denom (None at k = 0).
    """

    __slots__ = ("k", "j_indices", "denom", "m_hat", "adapted")

    def __init__(self, k, j_indices, denom, m_hat, adapted):
        self.k = k
        self.j_indices = j_indices
        self.denom = denom
        self.m_hat = m_hat
        self.adapted = adapted   # 10x10 integer change of basis (rows = adapted basis)


def _greedy_principal_block(g, target):
    """Indices of a nonsingular principal block of the integer matrix g of
    the given size, grown greedily by the first coordinate, else the first
    coordinate pair, that keeps it nonsingular."""
    chosen = []
    while len(chosen) < target:
        free = [i for i in range(len(g)) if i not in chosen]
        for sub in chain(([i] for i in free), combinations(free, 2)):
            block = chosen + list(sub)
            if int_det([[g[a][b] for b in block] for a in block]):
                chosen = block
                break
        else:
            raise AssertionError("rank bookkeeping is inconsistent")
    return chosen


def schur_complement(chart: Chart, k_basis=None) -> SchurData:
    """Compute (M_hat, D) with M_J = M_hat / D in the adapted basis.

    k_basis optionally fixes the basis of ker q_A (rows in bivector
    coordinates), e.g. to put a decomposable kernel direction first;
    supplied rows are cleared of denominators, else the chart form's
    primitive kernel rows are used.  The grid evaluations run on the
    integer-scaled congruent pencil C (G + M(t)) C^t: per point one
    Bareiss elimination of its J rows (zlinalg._eliminate) leaves D as
    the last pivot and, by Sylvester's identity, M_hat = det(N) P -
    R adj(N) R^t as the trailing k x k block of bordered minors, both up
    to the permutation sign.  Where det(N) = 0 it reads M_hat =
    -R adj(N) R^t off the adjugate.  At k = 0 the same oracle gives D
    alone, the chart determinant in the adapted basis.

    Degree bound: D is a principal jdim-minor of the congruent pencil and
    each M_hat entry is a bordered (jdim + 1)-minor of it (the J rows and
    columns plus one kernel row and column).  The degree-d part of such a
    minor is a sum of d x d minors of C M(t) C^t, whose rank over Q(t) is
    that of M(t), so every entry has degree <= min(jdim + 1,
    pencil_rank_bound()), the bound the interpolation uses.
    """
    form = chart.form
    kern = form.kernel_rows()
    k = len(kern)
    if k_basis is not None:
        kb = [fvec(r) for r in k_basis]
        if len(kb) != k or rank(kb) != k or rank(stack(kern, kb)) != k:
            raise ValueError("supplied kernel basis does not span ker q_A")
        kern = [scaled_ints(r)[1] for r in kb]
    # integer adapted basis: coordinate bivectors of J, then the kernel
    j = _greedy_principal_block(form.rows, 10 - k)
    c = [[int(i == t) for t in range(10)] for i in j] + kern
    gp = restrict_gram(form.gram, c)
    jdim = 10 - k
    # moving Gram in the adapted basis: integer coefficient matrices per t_a
    pencil = Pencil(gp, [int_gram(ba, c) for ba in moving_int_matrices()])

    def oracle(pt):
        s, m = pencil.at(pt)
        sign = _eliminate(m, jdim)
        if sign:
            d = sign * m[jdim - 1][jdim - 1] if jdim else 1
            mh = [sign * v for row in m[jdim:] for v in row[jdim:]]
        else:
            # det(N) = 0: the bordered minors are -R adj(N) R^t
            m = pencil.at(pt)[1]
            d = 0
            nq = [row[:jdim] for row in m[:jdim]]
            mh = [-v for row in int_gram(int_adjugate(nq), [row[:jdim] for row in m[jdim:]])
                  for v in row]
        mscale = s ** (jdim + 1)
        return [Fraction(d, s ** jdim)] + [Fraction(v, mscale) for v in mh]

    degree = min(jdim + 1, pencil_rank_bound())
    flat = interpolate_poly_map(oracle, CHART_VARS, degree, 1 + k * k)
    m_hat = PolyMatrix([flat[1 + i * k:1 + (i + 1) * k] for i in range(k)]) if k else None
    return SchurData(k, j, flat[0], m_hat, c)


def schur_identity_check(chart: Chart, sd: SchurData) -> bool:
    """det(q_A + q_v) * D^(k-1) == det(M_hat), as exact polynomials.

    Both sides live in the adapted basis; the left side is obtained from
    the chart determinant by the congruence scale det(C)^2.  For k = 0
    the identity degenerates to D == det(q_A + q_v).
    """
    scale = int_det(sd.adapted) ** 2
    f = local_sextic(chart).f * scale
    if sd.k == 0:
        return f == sd.denom
    lhs = f
    for _ in range(sd.k - 1):
        lhs = lhs * sd.denom
    # cofactor expansion: k <= 3, and it avoids large exact divisions
    rhs = det_cofactor(sd.m_hat)
    return lhs == rhs


class DoubleCoverData:
    """Generators of the local double-cover ideal, denominators cleared."""

    __slots__ = ("k", "vars", "generators", "notice")

    def __init__(self, k, variables, generators, notice=""):
        self.k = k
        self.vars = variables
        self.generators = generators
        self.notice = notice


def double_cover_ideal(chart: Chart, k_basis=None) -> DoubleCoverData:
    """Equations of the double cover over the chart, in t1..t5, xi1..xik.

    Generators: the k entries of M_hat * xi, then for i <= j the cleared
    fiber equations D^(k-1) * xi_i xi_j - cof(M_hat)_ij.  For k = 0 the
    cover is an unramified double sheet and the ideal is empty.  k is read
    off the chart first: k > 3 raises and k = 0 returns at once, with no
    Schur data computed unless a k_basis is supplied to be validated.

    Only the k(k+1)/2 cofactors the fiber equations use are computed:
    cof_ij = (-1)^(i+j) det(M_hat without row i and column j), which is
    1 at k = 1, a signed entry at k = 2 and a 2x2 determinant at k = 3.
    Each generator's terms are written directly in (t, xi): an M_hat_ij
    term at exponent e goes to e + unit_j, a D^(k-1) term to
    e + unit_i + unit_j and a cofactor term, negated, to e + 0.  The
    supports are disjoint, so no polynomial is added, lifted or
    re-validated.
    """
    k = chart.form.corank()
    if k > 3:
        raise ValueError("double cover model implemented for kernel dimension <= 3")
    if k or k_basis is not None:
        sd = schur_complement(chart, k_basis=k_basis)
    if k == 0:
        return DoubleCoverData(0, CHART_VARS, [],
                               "etale point: unramified double cover, empty ideal")
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
        return MultiPoly._canonical(evars, {e + x: c for p, x in parts for e, c in p.terms.items()})

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
