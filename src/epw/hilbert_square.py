"""Beauville-Bogomolov arithmetic on the Hilbert square of a K3 surface.

The second cohomology is modeled as the K3 lattice plus an orthogonal
(-2)-class xi (the half of the non-reduced locus); concretely the rank-23
named lattice `lattices.lambda_tilde()`, with xi the distinguished (-2)
generator.  On top of it:
the Fujiki quartic identity, the conic-bundle class arithmetic, the
genus-6 and degree-2 case ledgers, and the quartic-surface case with its
rank-2 Picard lattice handled through the ring Z[sqrt(2)]: Pell classes
of square 2, the nodal classes alpha_n, and the obstruction pairings.
"""

from math import isqrt

from . import lattices
from .zroot2 import QuadInt, PELL_UNIT


XI_INDEX = 22
K3_RANK = 22


class HilbClass:
    """A class a + m*xi with a in the K3 part (22 coordinates)."""

    __slots__ = ("a", "m")

    def __init__(self, a, m):
        a = [int(x) for x in a]
        if len(a) != K3_RANK:
            raise ValueError("expected 22 K3 coordinates")
        self.a = a
        self.m = int(m)

    @classmethod
    def xi(cls):
        return cls([0] * K3_RANK, 1)

    def full(self):
        return self.a + [self.m]


def bb_form(alpha: HilbClass, beta: HilbClass) -> int:
    """The integral bilinear form; q(xi) = -2 and the K3 part is orthogonal."""
    return lattices.lambda_tilde().pair(alpha.full(), beta.full())


def bb_square(alpha: HilbClass) -> int:
    return bb_form(alpha, alpha)


def fujiki_quartic(a, b, c, d) -> int:
    """Full polarization of the quartic intersection form: the integral of
    a b c d equals q(a,b)q(c,d) + q(a,c)q(b,d) + q(a,d)q(b,c), so the
    integral of alpha^4 is 3 q(alpha)^2."""
    return (bb_form(a, b) * bb_form(c, d)
            + bb_form(a, c) * bb_form(b, d)
            + bb_form(a, d) * bb_form(b, c))


class ConicClassReport:
    __slots__ = ("q_zeta", "ok")

    def __init__(self, q_zeta, ok):
        self.q_zeta = q_zeta
        self.ok = ok


# The geometric fiber integral of the exceptional conic bundle (an axiom).
CONIC_FIBER_INTEGRAL = -2


def conic_class_arithmetic() -> ConicClassReport:
    """Square of the exceptional conic-bundle class from its fiber integral.

    Inputs: q(h) = 2 and CONIC_FIBER_INTEGRAL.  With (zeta, h) = 0 the
    quartic identity gives integral(h^2 zeta^2) = q(h) q(zeta) =
    2 q(zeta), while the conic fibration gives integral(h^2 zeta^2) =
    2 * CONIC_FIBER_INTEGRAL.

    ok compares the fibration side with fujiki_quartic(h, h, zeta, zeta)
    on explicit classes of the rank-23 model: h = v1 = u + u' and
    zeta = e1 = u - u' in one hyperbolic summand, so q(h) = 2,
    q(zeta) = -2 and (h, zeta) = 0.
    """
    total = 2 * CONIC_FIBER_INTEGRAL
    q_zeta = total // 2
    lt = lattices.lambda_tilde()
    v1, e1 = lt.vector("v1"), lt.vector("e1")
    h = HilbClass(v1[:K3_RANK], v1[K3_RANK])
    zeta = HilbClass(e1[:K3_RANK], e1[K3_RANK])
    integral = fujiki_quartic(h, h, zeta, zeta)
    return ConicClassReport(q_zeta, integral == total)


class NSRank2:
    """Rank-2 Picard lattice spanned by mu(d) and xi, Gram diag(d^2, -2)."""

    __slots__ = ("d_sq",)

    MU = (1, 0)
    XI = (0, 1)

    def __init__(self, d_sq):
        if d_sq not in (2, 4, 10):
            raise ValueError("polarization square must be 2, 4 or 10")
        self.d_sq = d_sq

    def pair(self, v, w):
        return self.d_sq * v[0] * w[0] - 2 * v[1] * w[1]

    def q(self, v):
        return self.pair(v, v)

    def embed(self, v) -> HilbClass:
        """Embedding into the full model: mu(d) goes to a primitive vector
        of the right square in one hyperbolic summand, xi to the (-2) class."""
        x, y = v
        half = self.d_sq // 2
        a = [0] * K3_RANK
        a[0] = x
        a[1] = x * half
        return HilbClass(a, y)


# ---------------------------------------------------------------------
# Case ledgers
# ---------------------------------------------------------------------


class CaseReport:
    __slots__ = ("name", "checks")

    def __init__(self, name, checks):
        self.name = name
        self.checks = checks

    @property
    def ok(self):
        return all(p for _, p in self.checks)

    def lines(self):
        return ["%s %s: %s" % ("PASS" if p else "FAIL", self.name, label)
                for label, p in self.checks]


def delta_case_check() -> CaseReport:
    """Genus-6 case: the orthogonal rank-1 sublattice has squares -10 k^2,
    hence no vector of square -2 or -4."""
    ns = NSRank2(10)
    gen = (2, -5)                       # 2 mu(d) - 5 xi
    pol = (1, -2)                       # mu(d) - 2 xi
    checks = []
    checks.append(("q(2mu - 5xi) = -10", ns.q(gen) == -10))
    checks.append(("(2mu - 5xi, mu - 2xi) = 0", ns.pair(gen, pol) == 0))
    # squares in Z(2mu-5xi) are q k^2 with q = q(2mu-5xi); a vector of
    # square -2 or -4 would need q to divide -2 or -4
    q = ns.q(gen)
    no_small = all(m % q != 0 for m in (-2, -4))
    checks.append(("no -2/-4 vector in the span", no_small))
    emb = ns.embed(gen)
    checks.append(("embedded square agrees", bb_square(emb) == -10))
    return CaseReport("delta-case", checks)


def degree2_case_check() -> CaseReport:
    """Degree-2 case: xi is a (-2)-root of divisibility 2 orthogonal to the
    square-2 polarization, and its orbit tag is the double-prime one."""
    lt = lattices.lambda_tilde()
    v1 = lt.vector("v1")
    xi = lt.vector("e2")
    checks = []
    checks.append(("(xi, h) = 0", lt.pair(xi, v1) == 0))
    checks.append(("q(xi) = -2", lt.square(xi) == -2))
    div, _ = lattices.divisibility_and_star(xi, lt)
    checks.append(("div(xi) = 2 in the full lattice", div == 2))
    lam = lattices.lambda_lattice()
    tag = lattices.classify_negative_root(lam.vector("e2"), lam)
    checks.append(("orbit tag is S2_DPRIME", tag == lattices.S2_DPRIME))
    return CaseReport("degree2-case", checks)


# ---------------------------------------------------------------------
# Quartic case: Z[sqrt(2)] machinery
# ---------------------------------------------------------------------

PSI_H = QuadInt(-1, 1)     # psi(mu(d) - xi) = -1 + sqrt(2)


def psi(v) -> QuadInt:
    """The rank-2 Picard lattice into Z[sqrt(2)]: x mu + y xi -> y + x sqrt2."""
    x, y = v
    return QuadInt(y, x)


def trace_pairing(v, w) -> int:
    """Pairing via -Tr(psi(v) conj(psi(w))); cross-checked against the Gram."""
    ns = NSRank2(4)
    by_trace = -(psi(v) * psi(w).conj()).trace()
    by_gram = ns.pair(v, w)
    if by_trace != by_gram:
        raise AssertionError("trace form disagrees with the Gram form")
    return by_trace


def pell_square_two_classes(bound: int):
    """Classes x mu + y xi of square 2 in the quartic model, |n| <= bound.

    y + x sqrt2 = (-1 + sqrt2)(3 + 2 sqrt2)^n, sign fixed by positivity
    against the ample class mu - xi.  Returns [(n, x, y)] sorted by n.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    out = []
    for n in range(-bound, bound + 1):
        z = QuadInt(-1, 1) * PELL_UNIT ** n
        pos = -(z * PSI_H.conj()).trace()
        if pos < 0:
            z = -z
        x, y = z.x, z.y
        ns = NSRank2(4)
        if ns.q((x, y)) != 2:
            raise AssertionError("Pell class of wrong square")
        out.append((n, x, y))
    return out


# The box |x| <= 1000, |y| <= 1500 that pell_brute_force searches.
PELL_BOX = (1000, 1500)


def pell_brute_force():
    """Independent oracle: all (x, y), x > 0, with 4x^2 - 2y^2 = 2 in PELL_BOX.

    Solves y^2 = 2x^2 - 1 by perfect-square testing.
    """
    xmax, ymax = PELL_BOX
    out = []
    for x in range(1, xmax + 1):
        y2 = 2 * x * x - 1
        y = isqrt(y2)
        if y * y == y2 and y <= ymax:
            out.append((x, y))
            out.append((x, -y))
    return sorted(out)


def alpha_class(n: int):
    """The nodal class alpha_n: psi(alpha_n) = -(3 - 2 sqrt2)^n, square -2."""
    z = -(PELL_UNIT.conj() ** n)
    v = (z.x, z.y)
    if NSRank2(4).q(v) != -2:
        raise AssertionError("alpha class of wrong square")
    return v


def is_effective_double(n: int) -> int:
    """+1 if twice the nodal class is effective, -1 if minus twice is.

    The criterion is the sign of the pairing with the ample class
    mu - xi; it flips exactly at n = 0.
    """
    v = alpha_class(n)
    s = NSRank2(4).pair(v, (1, -1))
    if s == 0:
        raise AssertionError("nodal class orthogonal to the ample class")
    return 1 if s > 0 else -1


def obstruction_pairing(n: int):
    """For n != 0: an effective class beta with (h_n, beta) = -4.

    h_n is the candidate polarization obtained by applying the isometry
    'multiply by 3 - 2 sqrt2' -n times to mu - xi; beta doubles a nodal
    class chosen by the effectivity sign.  Returns (h_n, beta, pairing).
    """
    if n == 0:
        raise ValueError("n = 0 is the genuine polarization; no obstruction")
    g = PELL_UNIT.conj()  # 3 - 2 sqrt2, norm 1
    zh = PSI_H * g ** (-n)
    h_n = (zh.x, zh.y)
    if n > 0:
        base = alpha_class(-n + 1)
        assert is_effective_double(-n + 1) == -1
        beta = tuple(-2 * c for c in base)
    else:
        base = alpha_class(-n)
        assert is_effective_double(-n) == 1
        beta = tuple(2 * c for c in base)
    val = NSRank2(4).pair(h_n, beta)
    return h_n, beta, val
