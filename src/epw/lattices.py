"""Even lattices with integer Gram matrices.

Discriminant groups via Smith normal form, divisibility and the starred
class, roots and reflections, the Eichler-criterion invariants, the four
negative-root orbit tags, index-2 even overlattices, and the concrete
tower of named lattices used by the Hilbert-square analysis.

A lattice may carry named distinguished vectors (v1, e1, e2, e3, v3) and
a constructive certificate that it contains two orthogonal hyperbolic
planes (without which the Eichler criterion is refused).
"""

from fractions import Fraction
from math import gcd

from . import linalg, zlinalg
from .linalg import fvec


class ClassificationError(RuntimeError):
    """A sampled root does not fit the four-orbit table."""


S2_STAR = "S2_STAR"
S2_PRIME = "S2_PRIME"
S2_DPRIME = "S2_DPRIME"
S4 = "S4"
ROOT_TAGS = (S2_STAR, S2_PRIME, S2_DPRIME, S4)


class EvenLattice:
    __slots__ = ("rank", "gram", "named", "u2_pairs")

    def __init__(self, gram, named=None, u2_pairs=None):
        g = [[int(x) for x in row] for row in gram]
        n = len(g)
        if any(len(r) != n for r in g):
            raise ValueError("Gram matrix must be square")
        for i in range(n):
            for j in range(n):
                if g[i][j] != g[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
            if g[i][i] % 2 != 0:
                raise ValueError("diagonal entries must be even")
        self.rank = n
        self.gram = g
        self.named = {k: [int(x) for x in v] for k, v in (named or {}).items()}
        for k, v in self.named.items():
            if len(v) != n:
                raise ValueError("named vector %r has wrong length" % k)
        self.u2_pairs = []
        for (a, b) in (u2_pairs or []):
            a = [int(x) for x in a]
            b = [int(x) for x in b]
            self.u2_pairs.append((a, b))
        self._check_u2_cert()

    def _check_u2_cert(self):
        for i, (a, b) in enumerate(self.u2_pairs):
            if self.square(a) != 0 or self.square(b) != 0 or self.pair(a, b) != 1:
                raise ValueError("hyperbolic pair %d fails its defining relations" % i)
            for j in range(i):
                c, d = self.u2_pairs[j]
                if any(self.pair(x, y) != 0 for x in (a, b) for y in (c, d)):
                    raise ValueError("hyperbolic pairs %d and %d are not orthogonal" % (j, i))

    # -- basic form operations ------------------------------------------

    def pair(self, v, w):
        return sum(int(v[i]) * self.gram[i][j] * int(w[j])
                   for i in range(self.rank) for j in range(self.rank))

    def square(self, v):
        return self.pair(v, v)

    def gram_vec(self, v):
        return [sum(self.gram[i][j] * int(v[j]) for j in range(self.rank))
                for i in range(self.rank)]

    def det(self):
        return zlinalg.int_det(self.gram)

    def signature(self):
        return linalg.signature(self.gram)

    def is_primitive(self, v):
        g = 0
        for x in v:
            g = gcd(g, int(x))
        return g == 1

    def vector(self, name):
        if name not in self.named:
            raise KeyError("lattice has no named vector %r" % name)
        return list(self.named[name])

    def __repr__(self):
        return "EvenLattice(rank=%d, det=%d)" % (self.rank, self.det())


# ---------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------


def hyperbolic_plane():
    return EvenLattice([[0, 1], [1, 0]])


def rank_one(n):
    if n % 2:
        raise ValueError("even lattice needs an even square")
    return EvenLattice([[n]])


_E8_CARTAN = [
    [2, -1, 0, 0, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0, 0, 0],
    [0, -1, 2, -1, 0, 0, 0, 0],
    [0, 0, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, -1],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, 0],
    [0, 0, 0, 0, -1, 0, 0, 2],
]


def e8_minus():
    return EvenLattice([[-x for x in row] for row in _E8_CARTAN])


def direct_sum(*lattices, named=None, u2_pairs=None):
    n = sum(l.rank for l in lattices)
    g = [[0] * n for _ in range(n)]
    off = 0
    for l in lattices:
        for i in range(l.rank):
            for j in range(l.rank):
                g[off + i][off + j] = l.gram[i][j]
        off += l.rank
    return EvenLattice(g, named=named, u2_pairs=u2_pairs)


def _unit(n, i):
    v = [0] * n
    v[i] = 1
    return v


def lambda_tilde() -> EvenLattice:
    """U^3 + E8(-1)^2 + (-2), rank 23: the Hilbert-square second cohomology.

    Summand layout: J = (0,1), M = (2,3), N = (4,5), two E8(-1) blocks,
    then the (-2) generator.  Named vectors: v1 = u+u' in J (square 2),
    e1 = u-u' in J, e3 = u-u' in M, v3 = u+u' in M, e2 = the (-2)
    generator.
    """
    u = hyperbolic_plane()
    l = direct_sum(u, u, u, e8_minus(), e8_minus(), rank_one(-2))
    n = l.rank
    named = {
        "v1": [1, 1] + [0] * 21,
        "e1": [1, -1] + [0] * 21,
        "e3": [0, 0, 1, -1] + [0] * 19,
        "v3": [0, 0, 1, 1] + [0] * 19,
        "e2": _unit(n, 22),
    }
    pairs = [
        (_unit(n, 0), _unit(n, 1)),   # J
        (_unit(n, 2), _unit(n, 3)),   # M
        (_unit(n, 4), _unit(n, 5)),   # N
    ]
    return EvenLattice(l.gram, named=named, u2_pairs=pairs)


def orth_complement(l: EvenLattice, v) -> EvenLattice:
    """The primitive orthogonal complement v^perp as an even lattice.

    Named vectors and hyperbolic-pair certificates orthogonal to v are
    re-expressed in the complement basis and carried along.
    """
    v = [int(x) for x in v]
    if not l.is_primitive(v):
        raise ValueError("complement of a non-primitive vector")
    gv = l.gram_vec(v)
    basis = zlinalg.int_kernel([gv])
    if len(basis) != l.rank - 1:
        raise ValueError("vector is isotropic-degenerate; no full complement")
    gram = [[l.pair(a, b) for b in basis] for a in basis]
    named = {}
    for name, w in l.named.items():
        if l.pair(w, v) == 0:
            named[name] = _coords_in(basis, w)
    pairs = []
    for (a, b) in l.u2_pairs:
        if l.pair(a, v) == 0 and l.pair(b, v) == 0:
            pairs.append((_coords_in(basis, a), _coords_in(basis, b)))
    return EvenLattice(gram, named=named, u2_pairs=pairs)


def _coords_in(basis_rows, w):
    sol = linalg.solve(linalg.transpose(linalg.fmat(basis_rows)), fvec(w))
    if sol is None or any(x.denominator != 1 for x in sol):
        raise ValueError("vector does not lie in the sublattice")
    return [int(x) for x in sol]


def express_in_complement(l: EvenLattice, v, w):
    """Coordinates of w in the basis orth_complement(l, v) computes."""
    gv = l.gram_vec([int(x) for x in v])
    basis = zlinalg.int_kernel([gv])
    return _coords_in(basis, w)


# ---------------------------------------------------------------------
# Discriminant groups
# ---------------------------------------------------------------------


class DiscGroup:
    """L^dual / L with its Q/2Z quadratic form and Q/Z pairing.

    Elements are residue tuples over the invariant factors > 1.
    """

    __slots__ = ("lattice", "invariants", "gen_lifts", "_umat", "_diag")

    def __init__(self, lattice: EvenLattice):
        g = lattice.gram
        if zlinalg.int_det(g) == 0:
            raise ValueError("degenerate Gram matrix")
        d, u, v = zlinalg.smith_normal_form(g)
        n = lattice.rank
        diag = [d[i][i] for i in range(n)]
        self.lattice = lattice
        self._umat = u
        self._diag = diag
        self.invariants = [x for x in diag if x > 1]
        uinv = linalg.inverse(linalg.fmat(u))
        self.gen_lifts = []
        for i, di in enumerate(diag):
            if di <= 1:
                continue
            y = [uinv[r][i] for r in range(n)]
            lift = linalg.solve(linalg.fmat(g), y)
            self.gen_lifts.append(lift)

    @property
    def order(self):
        o = 1
        for d in self.invariants:
            o *= d
        return o

    def zero(self):
        return (0,) * len(self.invariants)

    def elements(self):
        if self.order > 4096:
            raise ValueError("discriminant group too large to enumerate")
        els = [()]
        for d in self.invariants:
            els = [e + (r,) for e in els for r in range(d)]
        return els

    def class_of(self, w):
        """Class of a dual vector w (rational coordinates, G w integral)."""
        w = fvec(w)
        y = linalg.mat_vec(linalg.fmat(self.lattice.gram), w)
        if any(x.denominator != 1 for x in y):
            raise ValueError("vector is not in the dual lattice")
        uy = linalg.mat_vec(linalg.fmat(self._umat), y)
        res = []
        for t in range(self.lattice.rank):
            dt = self._diag[t]
            if dt > 1:
                res.append(int(uy[t]) % dt)
        return tuple(res)

    def lift(self, el):
        """A rational lift of a residue tuple."""
        w = [Fraction(0)] * self.lattice.rank
        for r, g in zip(el, self.gen_lifts):
            if r:
                w = [x + r * y for x, y in zip(w, g)]
        return w

    def add(self, a, b):
        return tuple((x + y) % d for x, y, d in zip(a, b, self.invariants))

    def neg(self, a):
        return tuple((-x) % d for x, d in zip(a, self.invariants))

    def q_value(self, el):
        """q(el) in Q/2Z, canonical representative in [0, 2)."""
        w = self.lift(el)
        val = sum(w[i] * self.lattice.gram[i][j] * w[j]
                  for i in range(self.lattice.rank) for j in range(self.lattice.rank))
        return val % 2

    def is_isotropic(self, el):
        return self.q_value(el) == 0

    def element_order(self, el):
        from math import lcm as _lcm
        o = 1
        for r, d in zip(el, self.invariants):
            if r:
                o = _lcm(o, d // gcd(r, d))
        return o


def disc_group(l: EvenLattice) -> DiscGroup:
    return DiscGroup(l)


# ---------------------------------------------------------------------
# Divisibility, roots, reflections
# ---------------------------------------------------------------------


def divisibility_and_star(v, l: EvenLattice, disc: DiscGroup = None):
    """(div, v*) for a primitive nonzero vector.

    div generates the pairing ideal (v, L); v* is the class of v/div in
    the discriminant group.
    """
    v = [int(x) for x in v]
    if all(x == 0 for x in v):
        raise ValueError("zero vector")
    if not l.is_primitive(v):
        raise ValueError("vector is not primitive")
    gv = l.gram_vec(v)
    d = 0
    for x in gv:
        d = gcd(d, x)
    disc = disc or DiscGroup(l)
    star = disc.class_of([Fraction(x, d) for x in v])
    return d, star


def reflection_matrix(v, l: EvenLattice):
    """Matrix of x -> x - 2 (x,v)/(v,v) v on row vectors, over Q."""
    vsq = l.square(v)
    if vsq == 0:
        raise ValueError("cannot reflect in an isotropic vector")
    gv = l.gram_vec(v)
    n = l.rank
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = Fraction(1)
        c = Fraction(2 * gv[i], vsq)
        for j in range(n):
            m[i][j] -= c * v[j]
    return m


def is_root(v, l: EvenLattice) -> bool:
    """True iff v is primitive of nonzero even square and its reflection
    preserves the lattice."""
    v = [int(x) for x in v]
    if not l.is_primitive(v):
        raise ValueError("root test needs a primitive vector")
    if l.square(v) == 0:
        raise ValueError("isotropic vector")
    m = reflection_matrix(v, l)
    return all(x.denominator == 1 for row in m for x in row)


def is_root_by_divisibility(v, l: EvenLattice) -> bool:
    """Independent root test: for v^2 = ±2d, v is a root iff d divides
    every pairing (v, x)."""
    v = [int(x) for x in v]
    vsq = l.square(v)
    if vsq == 0 or vsq % 2:
        raise ValueError("need nonzero even square")
    d = abs(vsq) // 2
    return all(x % d == 0 for x in l.gram_vec(v))


def reflection(v0, l: EvenLattice):
    """Reflection in a square-2 vector: (integer matrix, stable flag).

    Stable means the induced action on the discriminant group is trivial;
    for square-2 vectors this always holds and is verified.
    """
    if l.square(v0) != 2:
        raise ValueError("reflection defined for square-2 vectors")
    m = reflection_matrix(v0, l)
    mi = [[int(x) for x in row] for row in m]
    disc = DiscGroup(l)
    stable = _acts_trivially_on_disc(mi, l, disc)
    return mi, stable


def _acts_trivially_on_disc(m, l, disc: DiscGroup) -> bool:
    for el in _disc_generators(disc):
        w = disc.lift(el)
        img = [sum(w[i] * m[i][j] for i in range(l.rank)) for j in range(l.rank)]
        if disc.class_of(img) != el:
            return False
    return True


def _disc_generators(disc: DiscGroup):
    gens = []
    for i in range(len(disc.invariants)):
        e = [0] * len(disc.invariants)
        e[i] = 1
        gens.append(tuple(e))
    return gens


def induced_disc_action(m, l: EvenLattice, disc: DiscGroup):
    """Images of the discriminant generators under an isometry matrix."""
    out = {}
    for el in _disc_generators(disc):
        w = disc.lift(el)
        img = [sum(w[i] * m[i][j] for i in range(l.rank)) for j in range(l.rank)]
        out[el] = disc.class_of(img)
    return out


def is_isometry(m, l: EvenLattice) -> bool:
    g = linalg.fmat(l.gram)
    mf = linalg.fmat(m)
    return linalg.mat_eq(linalg.mat_mul(linalg.mat_mul(mf, g), linalg.transpose(mf)), g)


# ---------------------------------------------------------------------
# Eichler criterion and the orbit tags
# ---------------------------------------------------------------------


def eichler_equivalent(v1, v2, l: EvenLattice) -> bool:
    """Stable-orbit test: equal squares and equal starred classes.

    Requires the lattice to carry a verified two-hyperbolic-plane
    certificate (built-in for the named tower); rejected otherwise.
    """
    if len(l.u2_pairs) < 2:
        raise ValueError("no U^2 certificate: Eichler criterion refused")
    disc = DiscGroup(l)
    if l.square(v1) != l.square(v2):
        return False
    _, s1 = divisibility_and_star(v1, l, disc)
    _, s2 = divisibility_and_star(v2, l, disc)
    return s1 == s2


def classify_negative_root(v, lam: EvenLattice, disc: DiscGroup = None) -> str:
    """Tag a negative root of the polarized lattice by (square, div, v*).

    (-2, 1, 0) -> S2_STAR; (-2, 2, e1*) -> S2_PRIME; (-2, 2, e2*) ->
    S2_DPRIME; (-4, 2, e1*+e2*) -> S4.  Anything else raises, since the
    four orbits are exhaustive.
    """
    v = [int(x) for x in v]
    sq = lam.square(v)
    if sq >= 0:
        raise ValueError("expected a vector of negative square")
    if not is_root(v, lam):
        raise ValueError("vector is not a root")
    if sq not in (-2, -4):
        raise ClassificationError("negative root of square %d outside the table" % sq)
    disc = disc or DiscGroup(lam)
    d, star = divisibility_and_star(v, lam, disc)
    _, e1s = divisibility_and_star(lam.vector("e1"), lam, disc)
    _, e2s = divisibility_and_star(lam.vector("e2"), lam, disc)
    if sq == -2:
        if d == 1 and star == disc.zero():
            return S2_STAR
        if d == 2 and star == e1s:
            return S2_PRIME
        if d == 2 and star == e2s:
            return S2_DPRIME
    if sq == -4 and d == 2 and star == disc.add(e1s, e2s):
        return S4
    raise ClassificationError(
        "root with square %d, div %d, star %r fits no orbit" % (sq, d, star)
    )


def iota_swap(lam: EvenLattice):
    """The involution e1 <-> e2, identity on their orthogonal complement.

    Returns (integer matrix, stable flag); the flag is False, which
    together with the order-2 discriminant automorphism group realizes
    index 2 of the stable subgroup.
    """
    e1, e2 = lam.vector("e1"), lam.vector("e2")
    comp = zlinalg.int_kernel([lam.gram_vec(e1), lam.gram_vec(e2)])
    t = [e1, e2] + comp
    tf = linalg.fmat(t)
    tinv = linalg.inverse(tf)
    s = linalg.identity(lam.rank)
    s[0], s[1] = s[1][:], s[0][:]
    m = linalg.mat_mul(linalg.mat_mul(tinv, s), tf)
    if any(x.denominator != 1 for row in m for x in row):
        raise AssertionError("swap involution is not integral on this lattice")
    mi = [[int(x) for x in row] for row in m]
    if not is_isometry(mi, lam):
        raise AssertionError("swap matrix is not an isometry")
    disc = DiscGroup(lam)
    stable = _acts_trivially_on_disc(mi, lam, disc)
    return mi, stable


def disc_autos_preserving_q(disc: DiscGroup):
    """All group automorphisms of D(L) preserving q.  Small groups only."""
    from itertools import permutations

    els = disc.elements()
    out = []
    # an automorphism permutes elements preserving addition and q; for the
    # groups in play (order <= 8) brute force over permutations is fine
    for perm in permutations(els):
        mapping = dict(zip(els, perm))
        if mapping[disc.zero()] != disc.zero():
            continue
        if any(disc.q_value(mapping[e]) != disc.q_value(e) for e in els):
            continue
        ok = all(
            mapping[disc.add(a, b)] == disc.add(mapping[a], mapping[b])
            for a in els for b in els
        )
        if ok:
            out.append(mapping)
    return out


# ---------------------------------------------------------------------
# Overlattices and sublattice indices
# ---------------------------------------------------------------------


class Overlattice:
    __slots__ = ("lattice", "index", "sub_in_super", "isotropic_class")

    def __init__(self, lattice, index, sub_in_super, isotropic_class):
        self.lattice = lattice
        self.index = index
        self.sub_in_super = sub_in_super  # rows: old basis in new coordinates
        self.isotropic_class = isotropic_class


def overlattices(l: EvenLattice):
    """Even overlattices from single isotropic order-2 discriminant classes.

    One overlattice per nonzero element x of D(L) with 2x = 0 and
    q(x) = 0 in Q/2Z; each is returned with its Gram matrix, the index,
    and the embedding of L.
    """
    if zlinalg.int_det(l.gram) == 0:
        raise ValueError("degenerate Gram matrix")
    disc = DiscGroup(l)
    out = []
    if disc.order == 1:
        return out
    for el in disc.elements():
        if el == disc.zero() or disc.element_order(el) != 2:
            continue
        if not disc.is_isotropic(el):
            continue
        w = disc.lift(el)
        gens = [[Fraction(int(i == j)) for j in range(l.rank)] for i in range(l.rank)]
        gens.append(w)
        basis, den = zlinalg.lattice_basis_from_rational_gens(gens)
        newb = [[Fraction(x, den) for x in row] for row in basis]
        gram = [[_pair_rat(l, a, b) for b in newb] for a in newb]
        if any(x.denominator != 1 for row in gram for x in row):
            raise AssertionError("overlattice Gram is not integral")
        gi = [[int(x) for x in row] for row in gram]
        named = {}
        for name, vv in l.named.items():
            named[name] = _coords_in_rat(newb, [Fraction(x) for x in vv])
        pairs = []
        for (a, b) in l.u2_pairs:
            pairs.append((
                _coords_in_rat(newb, [Fraction(x) for x in a]),
                _coords_in_rat(newb, [Fraction(x) for x in b]),
            ))
        sub = [_coords_in_rat(newb, [Fraction(int(i == j)) for j in range(l.rank)])
               for i in range(l.rank)]
        index = abs(zlinalg.int_det(sub))
        out.append(Overlattice(EvenLattice(gi, named=named, u2_pairs=pairs),
                               index, sub, el))
    return out


def _pair_rat(l, a, b):
    return sum(a[i] * l.gram[i][j] * b[j]
               for i in range(l.rank) for j in range(l.rank))


def _coords_in_rat(basis_rows, w):
    sol = linalg.solve(linalg.transpose(basis_rows), w)
    if sol is None or any(x.denominator != 1 for x in sol):
        raise ValueError("vector does not lie in the overlattice")
    return [int(x) for x in sol]


def sublattice_index_and_discr(l_super: EvenLattice, sub_rows):
    """(index, check) for a full-rank sublattice given by generator rows.

    check asserts discr(sub) = index^2 * discr(super) and is returned as
    a bool (always True when the assertion passes).
    """
    basis = zlinalg.hnf_row_basis(sub_rows)
    if len(basis) != l_super.rank:
        raise ValueError("sublattice is not of full rank")
    index = abs(zlinalg.int_det(basis))
    sub_gram = [[l_super.pair(a, b) for b in basis] for a in basis]
    lhs = zlinalg.int_det(sub_gram)
    rhs = index * index * l_super.det()
    if lhs != rhs:
        raise AssertionError("discriminant/index identity fails: %d != %d" % (lhs, rhs))
    return index, True


# ---------------------------------------------------------------------
# The named tower
# ---------------------------------------------------------------------


def lambda_lattice() -> EvenLattice:
    """v1^perp in the rank-23 lattice: the polarized period lattice."""
    lt = lambda_tilde()
    return orth_complement(lt, lt.vector("v1"))


def gamma_tilde() -> EvenLattice:
    """e3^perp in the rank-23 lattice."""
    lt = lambda_tilde()
    return orth_complement(lt, lt.vector("e3"))


def gamma_lattice() -> EvenLattice:
    """e3^perp inside the polarized lattice (rank 21)."""
    lam = lambda_lattice()
    return orth_complement(lam, lam.vector("e3"))


def phi_tilde() -> EvenLattice:
    """The unique even index-2 overlattice of gamma_tilde (the K3 lattice)."""
    gt = gamma_tilde()
    ovs = overlattices(gt)
    if len(ovs) != 1:
        raise AssertionError("expected exactly one even index-2 overlattice, got %d" % len(ovs))
    return ovs[0].lattice


def phi_lattice() -> EvenLattice:
    """v1^perp in the K3 lattice: degree-2 polarized K3 periods."""
    pt = phi_tilde()
    return orth_complement(pt, pt.vector("v1"))


NAMED_LATTICES = {
    "lambda-tilde": lambda_tilde,
    "lambda": lambda_lattice,
    "gamma-tilde": gamma_tilde,
    "gamma": gamma_lattice,
    "phi-tilde": phi_tilde,
    "phi": phi_lattice,
    "e8-minus": e8_minus,
    "u": hyperbolic_plane,
}
