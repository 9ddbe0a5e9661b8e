"""Polynomial matrices and exact determinants.

Three determinant routes, all returning identical results:

* cofactor expansion (reference oracle, small sides only);
* fraction-free Bareiss elimination over the polynomial ring;
* evaluation/interpolation: clear every coefficient denominator of the
  matrix by one lcm L, evaluate the integer entries at the integer grid
  points, take integer determinants (zlinalg.int_det), rebuild the
  polynomial on a triangular interpolation grid and divide it once by
  L^side.

det_poly_matrix("auto") uses Bareiss for sides <= 2 and interpolation
for every larger side (the pencils of varquad, sides 3-10 in up to five
variables).

The interpolation core (interpolate_poly_map) works for any
vector-valued polynomial map and is reused to reconstruct Schur
complement matrices entrywise.  It calls the oracle once per point of
the triangular grid {a in N^n : |a| <= degree}, builds the Newton table
of forward differences in place in integer arithmetic, one variable at a
time, converts the binomial Newton basis to monomials by Stirling
numbers of the first kind, and divides once per coefficient at the end.
"""

from fractions import Fraction
from math import factorial, prod

from .linalg import frac, scaled_int_rows, scaled_ints
# The Fraction determinant is linalg.det; this name stays bound to it only
# because the benchmark tracer (perfbench/tracer.py) looks every one of its
# span targets up by name, polymat.det_fraction_matrix among them.
from .linalg import det as det_fraction_matrix  # noqa: F401
from .poly import MultiPoly
from .zlinalg import int_det

# ---------------------------------------------------------------------
# PolyMatrix
# ---------------------------------------------------------------------


class PolyMatrix:
    __slots__ = ("rows", "cols", "vars", "entries")

    def __init__(self, entries):
        if not entries or not entries[0]:
            raise ValueError("PolyMatrix must be nonempty")
        self.rows = len(entries)
        self.cols = len(entries[0])
        if any(len(r) != self.cols for r in entries):
            raise ValueError("ragged rows")
        self.vars = entries[0][0].vars
        for r in entries:
            for p in r:
                if p.vars != self.vars:
                    raise ValueError("entries have mixed variable contexts")
        self.entries = [list(r) for r in entries]

    @classmethod
    def from_scalar_matrix(cls, m, variables):
        return cls([[MultiPoly.const(variables, x) for x in row] for row in m])

    def is_square(self):
        return self.rows == self.cols

    def entry(self, i, j):
        return self.entries[i][j]

    def add(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return PolyMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)]
        )

    def mul(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        z = MultiPoly.zero(self.vars)
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                s = z
                for k in range(self.cols):
                    s = s + self.entries[i][k] * other.entries[k][j]
                row.append(s)
            out.append(row)
        return PolyMatrix(out)

    def transpose(self):
        return PolyMatrix([list(c) for c in zip(*self.entries)])

    def scale(self, p: MultiPoly):
        return PolyMatrix([[p * e for e in row] for row in self.entries])

    def degree_bound(self):
        """Sum over rows of the max entry degree: a bound on deg(det)."""
        total = 0
        for row in self.entries:
            d = max((p.degree() for p in row), default=-1)
            if d < 0:
                return -1  # a zero row
            total += d
        return total

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and self.entries == other.entries
        )


# ---------------------------------------------------------------------
# Determinant strategies
# ---------------------------------------------------------------------

MAX_SIDE = 12


def det_cofactor(m: PolyMatrix) -> MultiPoly:
    """Reference cofactor expansion; exponential, keep sides <= 5."""
    if not m.is_square():
        raise ValueError("determinant of a non-square matrix")
    n = m.rows

    def rec(rows, cols):
        if len(cols) == 1:
            return m.entries[rows[0]][cols[0]]
        acc = MultiPoly.zero(m.vars)
        r = rows[0]
        rest = rows[1:]
        for k, c in enumerate(cols):
            sub = rec(rest, cols[:k] + cols[k + 1:])
            term = m.entries[r][c] * sub
            acc = acc + term if k % 2 == 0 else acc - term
        return acc

    return rec(tuple(range(n)), tuple(range(n)))


def det_bareiss(m: PolyMatrix) -> MultiPoly:
    """Fraction-free Bareiss elimination over the polynomial ring."""
    from .poly import div_exact

    if not m.is_square():
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    a = [row[:] for row in m.entries]
    one = MultiPoly.const(m.vars, 1)
    prev = one
    sign = 1
    for k in range(n - 1):
        if a[k][k].is_zero():
            piv = None
            for i in range(k + 1, n):
                if not a[i][k].is_zero():
                    piv = i
                    break
            if piv is None:
                return MultiPoly.zero(m.vars)
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                a[i][j] = num if prev is one else div_exact(num, prev)
            a[i][k] = MultiPoly.zero(m.vars)
        prev = a[k][k]
    d = a[n - 1][n - 1]
    return d if sign == 1 else -d


# ---------------------------------------------------------------------
# Interpolation on the triangular grid
# ---------------------------------------------------------------------


def _simplex_grid(nvars, degree):
    """The lower set {a in N^nvars : |a| <= degree}, as tuples."""
    pts = [()]
    for _ in range(nvars):
        pts = [p + (x,) for p in pts for x in range(degree - sum(p) + 1)]
    return pts


def _grid_lines(grid, index, i):
    """Lines of the grid in variable i: positions of a, a + e_i, ... for
    every grid point a with a_i = 0, in increasing order of a_i."""
    lines = []
    for a in grid:
        if a[i] == 0:
            line = []
            while a in index:
                line.append(index[a])
                a = a[:i] + (a[i] + 1,) + a[i + 1:]
            lines.append(line)
    return lines


def _stirling1(n):
    """Signed Stirling numbers of the first kind s(a, k), 0 <= k <= a <= n:
    the falling factorial x(x-1)...(x-a+1) is sum_k s(a, k) x^k."""
    s = [[1]]
    for a in range(n):
        prev = s[-1] + [0]
        s.append([(prev[k - 1] if k else 0) - a * prev[k] for k in range(a + 2)])
    return s


def interpolate_poly_map(oracle, variables, degree, width):
    """Reconstruct a vector of polynomials from point evaluations.

    oracle(point) must return a sequence of `width` rationals, the values
    of `width` polynomials of total degree <= degree at the point.  It is
    called exactly once at each of the C(degree + nvars, nvars) points of
    the triangular grid {a in N^nvars : |a| <= degree}, given as tuples
    of integers, so vector components share every call.

    The Newton form on this lower set (Sauer-Xu; de Boor-Ron) is

        f(x) = sum_{|a| <= degree} (Delta^a f)(0) * prod_i binom(x_i, a_i)

    with forward differences Delta.  The values are scaled once to
    integers by the lcm L of their denominators, and the difference
    table is built in place, one variable at a time.  Multiplying the
    entry at a by degree!/prod_i a_i! (an integer) turns the binomials
    into falling factorials, which Stirling numbers of the first kind
    expand into monomials, again one variable at a time.  All of this is
    integer arithmetic; each coefficient is divided by L * degree! once
    at the end.
    """
    variables = tuple(variables)
    if degree < 0:
        raise ValueError("degree bound must be nonnegative")
    grid = _simplex_grid(len(variables), degree)
    columns = [[] for _ in range(width)]
    for pt in grid:
        val = [frac(x) for x in oracle(pt)]
        if len(val) != width:
            raise ValueError("oracle returned wrong width")
        for col, v in zip(columns, val):
            col.append(v)
    den, tables = scaled_int_rows(columns)

    index = {a: p for p, a in enumerate(grid)}
    lines = [line for i in range(len(variables)) for line in _grid_lines(grid, index, i)]
    top = factorial(degree)
    weights = [top // prod(factorial(x) for x in a) for a in grid]
    stirling = _stirling1(degree)
    for tab in tables:
        # forward differences: lines of variable 1 first, then 2, ...
        for line in lines:
            for k in range(1, len(line)):
                for j in range(len(line) - 1, k - 1, -1):
                    tab[line[j]] -= tab[line[j - 1]]
        for p, w in enumerate(weights):
            tab[p] *= w
        # falling factorials to monomials, in the same variable order
        for line in lines:
            old = [tab[p] for p in line]
            for k, p in enumerate(line):
                tab[p] = sum(stirling[a][k] * old[a] for a in range(k, len(line)))
    scale = den * top
    return [MultiPoly(variables, {a: Fraction(c, scale) for a, c in zip(grid, tab) if c})
            for tab in tables]


def _int_evaluator(m: PolyMatrix):
    """(L, ev) for a polynomial matrix m: L is the lcm of the denominators
    of all its coefficients, and ev(pt) the integer matrix L * m at the
    integer point pt."""
    top = [max((e[i] for row in m.entries for p in row for e in p.terms), default=0)
           for i in range(len(m.vars))]
    den, flat = scaled_ints([c for row in m.entries for p in row for c in p.terms.values()])
    coeffs = iter(flat)
    # each entry as [(L * coefficient, ((variable index, exponent), ...))]
    entries = [[[(next(coeffs), tuple((i, k) for i, k in enumerate(e) if k))
                 for e in p.terms] for p in row] for row in m.entries]

    def ev(pt):
        pows = [[x ** k for k in range(d + 1)] for x, d in zip(pt, top)]
        out = []
        for row in entries:
            vals = []
            for terms in row:
                s = 0
                for c, mono in terms:
                    for i, k in mono:
                        c *= pows[i][k]
                    s += c
                vals.append(s)
            out.append(vals)
        return out

    return den, ev


def det_interpolate(m: PolyMatrix, degree=None) -> MultiPoly:
    """Determinant by integer evaluation at grid points plus interpolation.

    The coefficients are scaled to integers by one lcm L; each grid point
    costs one integer evaluation of the entries and one int_det, and the
    interpolated determinant of L * m is divided once by L^side.  degree
    defaults to m.degree_bound(), a bound on the total degree of the
    determinant.
    """
    if not m.is_square():
        raise ValueError("determinant of a non-square matrix")
    if degree is None:
        degree = m.degree_bound()
    if degree < 0:
        return MultiPoly.zero(m.vars)
    den, ev = _int_evaluator(m)
    scale = Fraction(1, den ** m.rows)
    if not m.vars or degree == 0:
        return MultiPoly.const(m.vars, int_det(ev((0,) * len(m.vars))) * scale)
    return interpolate_poly_map(lambda pt: (int_det(ev(pt)),), m.vars, degree, 1)[0] * scale


def det_poly_matrix(m: PolyMatrix, strategy="auto") -> MultiPoly:
    """Exact determinant; result is identical to cofactor expansion.

    strategy: "auto" | "bareiss" | "interpolate" | "cofactor".  Auto uses
    Bareiss over Q[t] for sides <= 2 and det_interpolate (integer
    evaluation, one int_det per grid point) for every larger side.
    """
    if not m.is_square():
        raise ValueError("determinant of a non-square matrix")
    if m.rows > MAX_SIDE:
        raise ValueError("side %d exceeds the supported bound %d" % (m.rows, MAX_SIDE))
    if strategy == "cofactor":
        return det_cofactor(m)
    if strategy == "bareiss":
        return det_bareiss(m)
    if strategy == "interpolate":
        return det_interpolate(m)
    if strategy != "auto":
        raise ValueError("unknown strategy %r" % (strategy,))
    if m.rows <= 2:
        return det_bareiss(m)
    return det_interpolate(m)


def adjugate_poly_matrix(m: PolyMatrix) -> PolyMatrix:
    """Adjugate: m * adj(m) = det(m) * identity, exactly."""
    if not m.is_square():
        raise ValueError("adjugate of a non-square matrix")
    if m.rows > MAX_SIDE:
        raise ValueError("side %d exceeds the supported bound %d" % (m.rows, MAX_SIDE))
    n = m.rows
    if n == 1:
        return PolyMatrix([[MultiPoly.const(m.vars, 1)]])
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rows = [r for r in range(n) if r != j]
            cols = [c for c in range(n) if c != i]
            sub = PolyMatrix([[m.entries[r][c] for c in cols] for r in rows])
            d = det_poly_matrix(sub)
            out[i][j] = d if (i + j) % 2 == 0 else -d
    return PolyMatrix(out)
