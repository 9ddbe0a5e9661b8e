"""Even lattices with integer Gram matrices.

Discriminant groups via Smith normal form, divisibility and the starred
class, roots and reflections, the Eichler-criterion invariants, the four
negative-root orbit tags, index-2 even overlattices, and the concrete
tower of named lattices used by the Hilbert-square analysis.

A lattice may carry named distinguished vectors (v1, e1, e2, e3, v3) and
a constructive certificate that it contains two orthogonal hyperbolic
planes (without which the Eichler criterion is refused).

An `EvenLattice` is a value: no function writes to its `gram`, `named`
or `u2_pairs` after `__init__`, and `vector()` returns a copy.  So each
constructor in `NAMED_LATTICES` is cached: the named tower is built once
per process and shared by every caller.  Three derived slots ride along:
the nonzero entries (j, g_ij) of each Gram row, which every pairing
walks instead of the dense matrix; the discriminant group, which
`disc_group` builds on first use and the lattice then holds; and the
signature, which `signature()` computes on first use and holds the same
way.  So the Smith normal form and the signature of a named lattice run
once per process, and the group of any other lattice lives exactly as
long as the lattice.  No function takes a group beside its lattice;
each reads `disc_group(l)`.

The lattice layer computes in integers only.  Gram matrices of
complements and overlattices, and the isometry test, are one
`zlinalg.int_gram` congruence product each; the coordinates of any
number of vectors in a sublattice basis are one fraction-free
Gauss-Jordan (`linalg._gauss_jordan`), and the swap involution is one
fraction-free solve; the induced action on the discriminant group maps
integer lifts; and the discriminant group needs nothing beyond its
Smith transform: from U G V = D it follows that G^-1 U^-1 = V D^-1, so
the lift of the i-th generator (the solution of G x = U^-1 e_i) is the
column V e_i / d_i.
The signature is read off the characteristic polynomial det(G - x I),
interpolated from integer determinants by one polymat.Pencil.
Fractions appear only where the public API returns them: `gen_lifts`,
`lift`, `q_value` and `reflection_matrix`.
"""

from fractions import Fraction
from functools import cache
from math import gcd, lcm

from . import linalg, zlinalg
from .polymat import Pencil


class ClassificationError(RuntimeError):
    """A sampled root does not fit the four-orbit table."""


S2_STAR = "S2_STAR"
S2_PRIME = "S2_PRIME"
S2_DPRIME = "S2_DPRIME"
S4 = "S4"
ROOT_TAGS = (S2_STAR, S2_PRIME, S2_DPRIME, S4)


class EvenLattice:
    __slots__ = ("rank", "gram", "named", "u2_pairs", "_rows", "_disc", "_sig")

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
        self._rows = [[(j, x) for j, x in enumerate(row) if x] for row in g]
        self._disc = None
        self._sig = None
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
        if len(v) != len(w):
            raise ValueError("vectors of lengths %d and %d" % (len(v), len(w)))
        return sum(int(x) * y for x, y in zip(v, self.gram_vec(w)) if x)

    def square(self, v):
        return self.pair(v, v)

    def gram_vec(self, v):
        """G v, walking only the nonzero coordinates of v and the nonzero
        entries of their Gram rows (G is symmetric)."""
        if len(v) != self.rank:
            raise ValueError("vector of length %d in a lattice of rank %d"
                             % (len(v), self.rank))
        out = [0] * self.rank
        for x, row in zip(v, self._rows):
            if x:
                x = int(x)
                for j, g in row:
                    out[j] += g * x
        return out

    def det(self):
        return zlinalg.int_det(self.gram)

    def signature(self):
        """(positive, negative) inertia of the Gram matrix G, computed on
        first use and then held by the lattice.

        p(x) = det(G - x I) is real-rooted, so by Descartes' rule the sign
        changes of its nonzero coefficients count the positive roots; its
        lowest nonzero degree is the dimension of the kernel.
        """
        if self._sig is None:
            n = self.rank
            minus_id = [[-int(i == j) for j in range(n)] for i in range(n)]
            p = Pencil(self.gram, [minus_id]).det_poly(("x",))
            coeffs = [c for _, c in sorted(p.terms.items())]
            pos = sum((a > 0) != (b > 0) for a, b in zip(coeffs, coeffs[1:]))
            self._sig = (pos, n - min(p.terms)[0] - pos)
        return self._sig

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


@cache
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


@cache
def e8_minus():
    return EvenLattice([[-x for x in row] for row in _E8_CARTAN])


def direct_sum(*lattices):
    n = sum(l.rank for l in lattices)
    g = [[0] * n for _ in range(n)]
    off = 0
    for l in lattices:
        for i in range(l.rank):
            for j in range(l.rank):
                g[off + i][off + j] = l.gram[i][j]
        off += l.rank
    return EvenLattice(g)


def _dot(a, b):
    """Integer dot product, skipping the zero coordinates of a."""
    return sum(x * y for x, y in zip(a, b) if x)


def _unit(n, i):
    v = [0] * n
    v[i] = 1
    return v


@cache
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
    gram = zlinalg.int_gram(l.gram, basis)
    names = [name for name, w in l.named.items() if _dot(w, gv) == 0]
    pairs = [(a, b) for (a, b) in l.u2_pairs if _dot(a, gv) == 0 and _dot(b, gv) == 0]
    coords = _coords_in(basis, [l.named[name] for name in names]
                        + [w for ab in pairs for w in ab])
    named = dict(zip(names, coords))
    rest = coords[len(names):]
    return EvenLattice(gram, named=named,
                       u2_pairs=list(zip(rest[0::2], rest[1::2])))


def _coords_in(basis_rows, ws):
    """Integer coordinates of every w in ws in the basis given by the rows.

    One fraction-free Gauss-Jordan of [B^T | W] covers all of ws: a
    column of B^T without a pivot means the rows are dependent, a zero
    row of B^T with a nonzero right side a w outside their span, and a
    pivot that does not divide its right side a w outside the
    sublattice.  Each raises ValueError.
    """
    if not ws:
        return []
    m = len(basis_rows)
    a, pivots = linalg._gauss_jordan(list(zip(*basis_rows, *ws)), m)
    if len(pivots) < m:
        raise ValueError("basis rows are linearly dependent")
    if any(x for row in a[m:] for x in row[m:]):
        raise ValueError("vector is not in the span of the basis")
    if any(x % row[i] for i, row in enumerate(a[:m]) for x in row[m:]):
        raise ValueError("vector does not lie in the sublattice")
    return [[row[m + c] // row[i] for i, row in enumerate(a[:m])] for c in range(len(ws))]


# ---------------------------------------------------------------------
# Discriminant groups
# ---------------------------------------------------------------------


class DiscGroup:
    """L^dual / L with its Q/2Z quadratic form and Q/Z pairing.

    Elements are residue tuples over the invariant factors > 1.
    """

    __slots__ = ("lattice", "invariants", "gen_lifts", "_urows", "_vcols")

    def __init__(self, lattice: EvenLattice):
        d, u, v = zlinalg.smith_normal_form(lattice.gram)
        n = lattice.rank
        diag = [d[i][i] for i in range(n)]
        if 0 in diag:
            raise ValueError("degenerate Gram matrix")
        keep = [i for i in range(n) if diag[i] > 1]
        self.lattice = lattice
        self.invariants = [diag[i] for i in keep]
        self._urows = [u[i] for i in keep]
        # G^-1 U^-1 = V D^-1: generator i lifts to the column V e_i / d_i
        self._vcols = [[row[i] for row in v] for i in keep]
        self.gen_lifts = [[Fraction(x, di) for x in col]
                          for col, di in zip(self._vcols, self.invariants)]

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
        den, num = linalg.scaled_ints(w)
        return self._class_of_num(num, den)

    def _class_of_num(self, num, den):
        """Class of num/den, for an integer vector num."""
        y = self.lattice.gram_vec(num)
        if any(x % den for x in y):
            raise ValueError("vector is not in the dual lattice")
        y = [x // den for x in y]
        return tuple(_dot(row, y) % d for row, d in zip(self._urows, self.invariants))

    def _lift_num(self, el):
        """(num, den) in lowest terms with num/den the lift of el."""
        den = self.invariants[-1] if self.invariants else 1
        num = [0] * self.lattice.rank
        for r, col, d in zip(el, self._vcols, self.invariants):
            if r:
                c = r * (den // d)
                num = [x + c * y for x, y in zip(num, col)]
        g = gcd(den, *num)
        return [x // g for x in num], den // g

    def lift(self, el):
        """A rational lift of a residue tuple."""
        num, den = self._lift_num(el)
        return [Fraction(x, den) for x in num]

    def add(self, a, b):
        return tuple((x + y) % d for x, y, d in zip(a, b, self.invariants))

    def q_value(self, el):
        """q(el) in Q/2Z, canonical representative in [0, 2)."""
        num, den = self._lift_num(el)
        return Fraction(self.lattice.square(num), den * den) % 2

    def is_isotropic(self, el):
        return self.q_value(el) == 0

    def element_order(self, el):
        o = 1
        for r, d in zip(el, self.invariants):
            if r:
                o = lcm(o, d // gcd(r, d))
        return o


def disc_group(l: EvenLattice) -> DiscGroup:
    """The discriminant group of l, built on first use and held by l."""
    if l._disc is None:
        l._disc = DiscGroup(l)
    return l._disc


# ---------------------------------------------------------------------
# Divisibility, roots, reflections
# ---------------------------------------------------------------------


def divisibility_and_star(v, l: EvenLattice):
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
    return d, disc_group(l)._class_of_num(v, d)


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
    vsq = l.square(v)
    if vsq == 0:
        raise ValueError("isotropic vector")
    # reflection_matrix has the entries (vsq delta_ij - 2 (Gv)_i v_j) / vsq,
    # and vsq delta_ij is always divisible by vsq
    gv = l.gram_vec(v)
    return all(2 * g * x % vsq == 0 for g in gv for x in v)


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
    stable = all(img == el for el, img in induced_disc_action(mi, l).items())
    return mi, stable


def induced_disc_action(m, l: EvenLattice):
    """Images of the discriminant generators of l under an isometry matrix:
    each integer lift num/den goes to (num m)/den, read back as a class."""
    disc = disc_group(l)
    n = len(disc.invariants)
    out = {}
    for i in range(n):
        el = tuple(int(t == i) for t in range(n))
        num, den = disc._lift_num(el)
        out[el] = disc._class_of_num([_dot(num, col) for col in zip(*m)], den)
    return out


def is_isometry(m, l: EvenLattice) -> bool:
    """Whether the integer rows m satisfy m G m^t = G."""
    return zlinalg.int_gram(l.gram, m) == l.gram


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
    if l.square(v1) != l.square(v2):
        return False
    _, s1 = divisibility_and_star(v1, l)
    _, s2 = divisibility_and_star(v2, l)
    return s1 == s2


def classify_negative_root(v, lam: EvenLattice) -> str:
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
    disc = disc_group(lam)
    d, star = divisibility_and_star(v, lam)
    _, e1s = divisibility_and_star(lam.vector("e1"), lam)
    _, e2s = divisibility_and_star(lam.vector("e2"), lam)
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
    # in the basis t the swap permutes the first two rows: t m = s t, one
    # fraction-free solve giving det * m
    det, y = zlinalg.bareiss_solve(t, [t[1], t[0]] + t[2:])
    if any(x % det for row in y for x in row):
        raise AssertionError("swap involution is not integral on this lattice")
    mi = [[x // det for x in row] for row in y]
    if not is_isometry(mi, lam):
        raise AssertionError("swap matrix is not an isometry")
    stable = all(img == el for el, img in induced_disc_action(mi, lam).items())
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
    __slots__ = ("lattice", "index", "sub_in_super")

    def __init__(self, lattice, index, sub_in_super):
        self.lattice = lattice
        self.index = index
        self.sub_in_super = sub_in_super  # rows: old basis in new coordinates


def overlattices(l: EvenLattice):
    """Even overlattices from single isotropic order-2 discriminant classes.

    One overlattice per nonzero element x of D(L) with 2x = 0 and
    q(x) = 0 in Q/2Z; each is returned with its Gram matrix, the index,
    and the embedding of L.
    """
    disc = disc_group(l)
    out = []
    if disc.order == 1:
        return out
    n = l.rank
    for el in disc.elements():
        if el == disc.zero() or disc.element_order(el) != 2:
            continue
        if not disc.is_isotropic(el):
            continue
        # the overlattice L + Z w, w = num/den, is (1/den) rowspan(basis)
        num, den = disc._lift_num(el)
        units = [_unit(n, i) for i in range(n)]
        basis = zlinalg.hnf_row_basis([[den * x for x in e] for e in units] + [num])
        gram = zlinalg.int_gram(l.gram, basis)
        den2 = den * den
        if any(x % den2 for row in gram for x in row):
            raise AssertionError("overlattice Gram is not integral")
        gi = [[x // den2 for x in row] for row in gram]
        ws = list(l.named.values()) + [w for ab in l.u2_pairs for w in ab] + units
        coords = _coords_in(basis, [[den * x for x in w] for w in ws])
        named = dict(zip(l.named, coords))
        flat = coords[len(l.named):len(coords) - n]
        pairs = list(zip(flat[0::2], flat[1::2]))
        sub = coords[-n:]
        index = abs(zlinalg.int_det(sub))
        out.append(Overlattice(EvenLattice(gi, named=named, u2_pairs=pairs), index, sub))
    return out


def sublattice_index_and_discr(l_super: EvenLattice, sub_rows):
    """(index, check) for a full-rank sublattice given by generator rows.

    check asserts discr(sub) = index^2 * discr(super) and is returned as
    a bool (always True when the assertion passes).
    """
    basis = zlinalg.hnf_row_basis(sub_rows)
    if len(basis) != l_super.rank:
        raise ValueError("sublattice is not of full rank")
    index = abs(zlinalg.int_det(basis))
    sub_gram = zlinalg.int_gram(l_super.gram, basis)
    lhs = zlinalg.int_det(sub_gram)
    rhs = index * index * l_super.det()
    if lhs != rhs:
        raise AssertionError("discriminant/index identity fails: %d != %d" % (lhs, rhs))
    return index, True


# ---------------------------------------------------------------------
# The named tower
# ---------------------------------------------------------------------


@cache
def lambda_lattice() -> EvenLattice:
    """v1^perp in the rank-23 lattice: the polarized period lattice."""
    lt = lambda_tilde()
    return orth_complement(lt, lt.vector("v1"))


@cache
def gamma_tilde() -> EvenLattice:
    """e3^perp in the rank-23 lattice."""
    lt = lambda_tilde()
    return orth_complement(lt, lt.vector("e3"))


@cache
def gamma_lattice() -> EvenLattice:
    """e3^perp inside the polarized lattice (rank 21)."""
    lam = lambda_lattice()
    return orth_complement(lam, lam.vector("e3"))


@cache
def phi_tilde() -> EvenLattice:
    """The unique even index-2 overlattice of gamma_tilde (the K3 lattice)."""
    gt = gamma_tilde()
    ovs = overlattices(gt)
    if len(ovs) != 1:
        raise AssertionError("expected exactly one even index-2 overlattice, got %d" % len(ovs))
    return ovs[0].lattice


@cache
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
