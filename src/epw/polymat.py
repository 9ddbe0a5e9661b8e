"""Polynomial matrices and exact determinants.

Every polynomial determinant takes one of two routes, and a third
serves as the reference:

* Bareiss: fraction-free elimination over the polynomial ring
  (det_bareiss), the one route for a symbolic PolyMatrix.  It is the
  integer loop zlinalg._eliminate run on MultiPoly entries, whose //
  is the exact quotient.  det_poly_matrix and adjugate_poly_matrix reach
  it at every side.
* Pencil: an affine pencil base + sum_a t_a M_a of constant rational
  matrices (the chart pencil det(q_A + q_v), the congruent Schur pencil
  and the pencils det(q_* + q(t)) of varquad) is scaled to integers by one
  lcm L, evaluated at the points of a triangular interpolation grid,
  interpolated and divided once by L^side.  The values at the grid
  points come from one walker, bordered(n): the leading n-minor D and
  the bordered (n + 1)-minors, line by line in the last variable.  Of
  the first n rows and columns, the p that the last move never touches
  lead: the walker reads base and moves into that order once per call
  (_permuted, by index maps), so a line's matrix is one row copy plus its
  moves.  Per line one Bareiss prefix of p steps (zlinalg._eliminate)
  leaves their pivot P and the trailing block of bordered minors, and
  per point that block gains t P M_last and the elimination resumes
  from P for the other n - p steps; the singular-prefix and D = 0
  fallbacks work in the original order.  det_poly is the walker at n = side
  (p = 4 on the chart pencil, the pairs containing e5), the Schur data
  of local_model at n = jdim.
  det_interpolate reads an affine PolyMatrix into a Pencil.
  Pencil.graded_parts(variables, top) is the graded route: only the
  homogeneous parts Phi_0..Phi_top, from the univariate
  det(base + s Q_u) along the directions u = (1, y) of one triangular
  y-grid of degree top.  Each direction is one zlinalg._eliminate of
  base + 2^w Q_u (Kronecker substitution): w is wide enough, by a
  Hadamard bound H on every coefficient (_digit_width), that the
  balanced base-2^w digits of that one determinant are the coefficients
  in s.  varquad's statements read it to the last piece each uses: the
  kernel block to Phi_k (k = cork q_*), the vanishing kernel to Phi_2k,
  the corank-one rank formula Phi_2.
* cofactor expansion (det_cofactor): the reference oracle, small sides
  only.

The interpolation core (interpolate_poly_map) works for any
vector-valued polynomial map and is reused to reconstruct Schur
complement matrices entrywise.  It calls the oracle once per point of
the triangular grid {a in N^n : |a| <= degree}, builds the Newton table
of forward differences in place in integer arithmetic, one variable at a
time, converts the binomial Newton basis to monomials by Stirling
numbers of the first kind, and divides once per coefficient at the end.
The grid and that transform are one plan per (n, degree) (_plan), built
on first use and held for the process: the forward-difference pairs,
the weights degree!/prod_i a_i! and the (target, source, Stirling
number) triples as flat integer update lists, so the transform
(_newton_stirling) is three flat loops per table.  The graded route runs
its y-grid on the same held plans.  The walker
builds each line's integer matrix from the integer grid point as it is,
with no rescaling, and integer oracle values enter the tables as they
are.
"""

from fractions import Fraction
from functools import cache
from math import factorial, isqrt, prod
from operator import mul
from typing import NamedTuple

from .linalg import scaled_int_rows, scaled_ints
# The Fraction determinant is linalg.det; this name stays bound to it only
# because the benchmark tracer (perfbench/tracer.py) looks every one of its
# span targets up by name, polymat.det_fraction_matrix among them.
from .linalg import det as det_fraction_matrix  # noqa: F401
from .poly import MultiPoly
from .zlinalg import _eliminate, int_det

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
    """Fraction-free Bareiss elimination over the polynomial ring:
    zlinalg._eliminate on a copy of the entries."""
    if not m.is_square():
        raise ValueError("determinant of a non-square matrix")
    a = [row[:] for row in m.entries]
    sign = _eliminate(a, m.rows)
    if not sign:
        return MultiPoly.zero(m.vars)
    return a[-1][-1] if sign == 1 else -a[-1][-1]


def _perm_sign(order):
    """The sign of the permutation order of range(len(order))."""
    return -1 if sum(a > b for i, a in enumerate(order) for b in order[i + 1:]) % 2 else 1


def _permuted(base, moves, rows, cols):
    """base and the sparse moves [(i, j, c), ...] read into the row order
    rows and the column order cols (permutations of range(side)): entry
    (r, c) of the new base is base[rows[r]][cols[c]], and a move entry at
    (i, j) goes to (position of i in rows, position of j in cols), read off
    one index map per order."""
    at_row, at_col = [0] * len(rows), [0] * len(cols)
    for r, i in enumerate(rows):
        at_row[i] = r
    for c, j in enumerate(cols):
        at_col[j] = c
    return ([[base[i][j] for j in cols] for i in rows],
            [[(at_row[i], at_col[j], c) for i, j, c in move] for move in moves])


# ---------------------------------------------------------------------
# Interpolation on the triangular grid
# ---------------------------------------------------------------------


def _simplex_grid(nvars, degree):
    """The lower set {a in N^nvars : |a| <= degree}, as tuples."""
    pts = [()]
    for _ in range(nvars):
        pts = [p + (x,) for p in pts for x in range(degree - sum(p) + 1)]
    return pts


def _stirling1(n):
    """Signed Stirling numbers of the first kind s(a, k), 0 <= k <= a <= n:
    the falling factorial x(x-1)...(x-a+1) is sum_k s(a, k) x^k."""
    s = [[1]]
    for a in range(n):
        prev = s[-1] + [0]
        s.append([(prev[k - 1] if k else 0) - a * prev[k] for k in range(a + 2)])
    return s


class _Plan(NamedTuple):
    """The interpolation plan of one (nvars, degree): the grid and the
    Newton-Stirling transform on it as flat integer update tuples, read
    and never written, so one plan serves every caller."""
    grid: tuple      # _simplex_grid(nvars, degree), in grid order
    diffs: tuple     # (target, source): tab[target] -= tab[source], in order
    weights: tuple   # degree! / prod_i a_i!, one per grid point
    stirling: tuple  # (target, source, s(a, k)): tab[target] += s * tab[source]


@cache
def _plan(nvars, degree):
    """The held plan of (nvars, degree), built on first use.

    The lines of the grid in variable i are the positions of a, a + e_i,
    ... for every a with a_i = 0; the lines of variable 1 come first, then
    2, and so on.  On a line of length n the forward differences of the
    Newton form take, for k = 1..n-1, line[j] -= line[j - 1] for j from
    n - 1 down to k.  The falling factorials of a line turn into monomials
    as new[k] = sum_{a >= k} s(a, k) old[a]; with s(k, k) = 1 and k
    ascending, every old[a] with a > k is still in place, so each nonzero
    s(a, k), a > k, is one in-place update.
    """
    grid = _simplex_grid(nvars, degree)
    index = {a: p for p, a in enumerate(grid)}
    lines = []
    for i in range(nvars):
        for a in grid:
            if a[i] == 0:
                line = []
                while a in index:
                    line.append(index[a])
                    a = a[:i] + (a[i] + 1,) + a[i + 1:]
                lines.append(line)
    top = factorial(degree)
    s = _stirling1(degree)
    return _Plan(
        tuple(grid),
        tuple((line[j], line[j - 1]) for line in lines
              for k in range(1, len(line)) for j in range(len(line) - 1, k - 1, -1)),
        tuple(top // prod(factorial(x) for x in a) for a in grid),
        tuple((line[k], line[a], s[a][k]) for line in lines
              for k in range(len(line)) for a in range(k + 1, len(line)) if s[a][k]))


def _newton_stirling(plan, tables):
    """The integer core of interpolation on the triangular grid.

    Each table holds integer values at the points of plan.grid, in its
    order.  In place, it becomes the integer monomial coefficients, indexed
    like the grid, of degree! times the interpolating polynomial of total
    degree <= degree: the forward differences of the Newton form, the
    weights degree!/prod_i a_i! that turn binomials into falling
    factorials, and Stirling numbers of the first kind, each one variable
    at a time, as three flat loops over the plan's update lists.
    """
    diffs, weights, stirling = plan.diffs, plan.weights, plan.stirling
    for tab in tables:
        for t, s in diffs:
            tab[t] -= tab[s]
        tab[:] = map(mul, tab, weights)
        for t, s, c in stirling:
            tab[t] += c * tab[s]


def interpolate_poly_map(oracle, variables, degree, width):
    """Reconstruct a vector of polynomials from point evaluations.

    oracle(point) must return a sequence of `width` rationals (ints or
    Fractions; floats raise TypeError), the values of `width` polynomials
    of total degree <= degree at the point.  It is called exactly once at
    each of the C(degree + nvars, nvars) points of the triangular grid
    {a in N^nvars : |a| <= degree}, given as tuples of integers in grid
    order, so vector components share every call.

    The Newton form on this lower set (Sauer-Xu; de Boor-Ron) is

        f(x) = sum_{|a| <= degree} (Delta^a f)(0) * prod_i binom(x_i, a_i)

    with forward differences Delta.  The values are scaled once to
    integers by the lcm L of their denominators (integer values pass as
    they are), and _newton_stirling turns the tables into degree! times
    the monomial coefficients in integer arithmetic, along the plan held
    for (nvars, degree) (_plan: built on the first call with that key,
    then reused for the process); each coefficient is divided by L *
    degree! once at the end.
    """
    variables = MultiPoly.zero(variables).vars  # validated once, for _canonical
    if degree < 0:
        raise ValueError("degree bound must be nonnegative")
    plan = _plan(len(variables), degree)
    values = [oracle(pt) for pt in plan.grid]
    if any(len(val) != width for val in values):
        raise ValueError("oracle returned wrong width")
    den, tables = scaled_int_rows(zip(*values))
    _newton_stirling(plan, tables)
    scale = den * factorial(degree)
    return [MultiPoly._canonical(variables, {a: Fraction(c, scale)
                                             for a, c in zip(plan.grid, tab) if c})
            for tab in tables]


def _digit_width(base_norms, q):
    """The digit width w of Pencil.graded_parts along one direction:
    (2H).bit_length() + 1 for H = prod_j (base_norms[j] + isqrt|q_j|^2 +
    1), q_j the columns of the integer matrix q and base_norms[j] =
    isqrt|b_j|^2 + 1 for the columns b_j of the base.  H bounds every
    coefficient of det(base + s q), so 2^(w - 1) > 2H exceeds each."""
    h = prod(b + isqrt(sum(x * x for x in col)) + 1 for b, col in zip(base_norms, zip(*q)))
    return (2 * h).bit_length() + 1


class Pencil:
    """The affine pencil base + sum_a t_a moves[a] of square rational matrices.

    Base and moves are scaled to integers by one lcm L of all their
    denominators.  at(t) returns (s, m) with m = s * (base + sum_a t_a
    moves[a]) an integer matrix, where s = L * lcm(denominators of t); on
    the integer interpolation grid s is L.  A point has one coordinate,
    and det_poly one variable, per move (ValueError otherwise).
    bordered(n) is the walker over the grid behind det_poly and the
    Schur data of local_model.
    """

    __slots__ = ("den", "base", "moves")

    def __init__(self, base, moves):
        n = len(base)
        if any(len(m) != n or any(len(row) != n for row in m) for m in [base, *moves]):
            raise ValueError("pencil base and moves must be square matrices of one side")
        self.den, rows = scaled_int_rows([row for m in [base, *moves] for row in m])
        self.base = rows[:n]
        self.moves = [[(i, j, c) for i, row in enumerate(rows[n * a:n * a + n])
                       for j, c in enumerate(row) if c]
                      for a in range(1, len(moves) + 1)]

    def at(self, pt):
        q, qt = scaled_ints(pt)
        return self.den * q, self._matrix(qt, q)

    def _check_point(self, ts):
        if len(ts) != len(self.moves):
            raise ValueError("pencil with %d moves at a point of %d coordinates"
                             % (len(self.moves), len(ts)))

    def _matrix(self, ts, q=1):
        """The integer matrix q * base + sum_a ts[a] moves[a], for integers
        ts (one per move, ValueError otherwise) and q: at(pt)[1] at an
        integer point pt is _matrix(pt)."""
        self._check_point(ts)
        m = [[x * q for x in row] for row in self.base] if q != 1 else [row[:] for row in self.base]
        for t, move in zip(ts, self.moves):
            if t:
                for i, j, c in move:
                    m[i][j] += t * c
        return m

    def det(self, pt):
        """Exact determinant of the pencil at a rational point."""
        s, m = self.at(pt)
        return Fraction(int_det(m), s ** len(m))

    def det_poly(self, variables, degree=None) -> MultiPoly:
        """The determinant as a polynomial in the variables (one per move),
        interpolated from its integer values L^side det at the grid points
        and divided once by L^side (not at all when L is 1).

        The values come from the walker at n = side (bordered): one
        Bareiss prefix per line of the last variable, on the rows and
        columns the last move never touches, and per point only the
        trailing block that it moves.

        degree is a bound on its total degree.  It defaults to the row
        bound (_row_bound): the sum of the row degrees, -1 (a zero
        determinant) when a row is zero.
        """
        self._check_variables(variables)
        if degree is None:
            degree = self._row_bound()
        if degree < 0:
            return MultiPoly.zero(variables)
        f = interpolate_poly_map(self.bordered(len(self.base)), variables, degree, 1)[0]
        return f if self.den == 1 else f * Fraction(1, self.den ** len(self.base))

    def bordered(self, n):
        """The walker: the oracle pt -> [D, bordered minors] at integer
        points that come line by line, the points of one line differing
        only in their last coordinate.  D is the leading n-minor of m =
        at(pt)[1], then come, row-major, the (n + 1)-minors of m that
        border it by one more row and column (Sylvester's identity).

        Of the first n rows and columns, the p of each that the last move
        never touches are permuted to the front: base and moves are read
        into that row and column order once per call (_permuted), so a
        line's matrix is one copy of the permuted base plus its moves.  At
        the line's point with t = 0, _eliminate(m0, p) leaves P, the last
        prefix pivot, and the trailing block of bordered (p + 1)-minors.
        Each is linear in its corner entry with slope P, so at t that block
        gains t P times the last move, and _eliminate(trail, n - p,
        prev=P) finishes the n steps.  A line whose prefix is singular
        eliminates each point from scratch, in the original order.  Where
        the n x n block N is singular, D = 0 and each bordered minor is one
        int_det of N bordered by its row and column.  A point with one
        coordinate per move is required (ValueError otherwise).
        """
        side = len(self.base)
        last = self.moves[-1] if self.moves else []
        moved_rows, moved_cols = {i for i, _, _ in last}, {j for _, j, _ in last}
        fixed_rows = [i for i in range(n) if i not in moved_rows]
        fixed_cols = [j for j in range(n) if j not in moved_cols]
        p = min(len(fixed_rows), len(fixed_cols))
        rows = fixed_rows[:p] + [i for i in range(side) if i not in fixed_rows[:p]]
        cols = fixed_cols[:p] + [j for j in range(side) if j not in fixed_cols[:p]]
        perm = _perm_sign(rows) * _perm_sign(cols)
        base, moves = _permuted(self.base, self.moves, rows, cols)
        step = [(i - p, j - p, c) for i, j, c in moves.pop()] if moves else []
        line = sign = pivot = trail = None

        def oracle(pt):
            nonlocal line, sign, pivot, trail
            if pt[:-1] != line:
                self._check_point(pt)
                line = pt[:-1]
                m = [row[:] for row in base]
                for t, move in zip(line, moves):
                    if t:
                        for i, j, c in move:
                            m[i][j] += t * c
                sign = perm * _eliminate(m, p)
                pivot = m[p - 1][p - 1] if p else 1
                trail = [row[p:] for row in m[p:]]
            if sign:
                a, k = [row[:] for row in trail], n - p
                x = pt[-1] * pivot if pt else 0
                for i, j, c in step:
                    a[i][j] += x * c
                s = sign * _eliminate(a, k, pivot)
            else:   # a prefix that can fail has p >= 1 steps, so k = n >= 1
                a, k = self._matrix(pt), n
                s = _eliminate(a, k)
            if not s:
                m = self._matrix(pt)
                return [0] + [int_det([m[r][:n] + [m[r][j]] for r in (*range(n), i)])
                              for i in range(n, side) for j in range(n, side)]
            return [s * (a[k - 1][k - 1] if k else pivot)] + [s * v for row in a[k:] for v in row[k:]]

        return oracle

    def graded_parts(self, variables, top):
        """[Phi_0, ..., Phi_top]: the homogeneous parts of degree 0..top of
        det_poly(variables), without the parts above top.

        Along a direction u = (1, y) with y integral, g_u(s) = det(base +
        s Q_u), Q_u = sum_a u_a moves[a], is sum_i s^i L^n Phi_i(u), with
        integer coefficients.  By multilinearity in the columns and
        Hadamard's inequality each coefficient is below H = prod_j
        (isqrt|b_j|^2 + 1 + isqrt|q_j|^2 + 1) in absolute value (b_j, q_j:
        the columns of base and Q_u).  So for w = (2H).bit_length() + 1
        (_digit_width) the balanced base-2^w digits of the one integer
        g_u(2^w) are those coefficients (Kronecker substitution): one
        zlinalg._eliminate of base + 2^w Q_u per direction, and g_u(2^w)
        = 0 means g_u = 0.  Phi_i(1, y) has degree <= i in y, so one
        triangular y-grid of degree min(top, d), d the row bound of
        det_poly, fixes Phi_0..Phi_top at once, and Phi_i is its
        homogenization.  The y-step runs on _newton_stirling, and each
        coefficient is divided once at the end.  Parts above d are zero.
        """
        self._check_variables(variables)
        if top < 0:
            raise ValueError("top degree must be nonnegative")
        d = self._row_bound()
        zero = MultiPoly.zero(variables)
        reach = min(top, d)
        if reach < 0:
            return [zero] * (top + 1)
        n = len(self.base)
        if reach == 0:
            det0 = Fraction(int_det(self.base), self.den ** n)
            return [MultiPoly.const(variables, det0)] + [zero] * top
        yplan = _plan(len(self.moves) - 1, reach)
        base_norms = [isqrt(sum(x * x for x in col)) + 1 for col in zip(*self.base)]
        tables = [[] for _ in range(reach + 1)]   # tables[i][p]: L^n Phi_i(1, ygrid[p])
        for y in yplan.grid:
            q = [[0] * n for _ in range(n)]
            for ua, move in zip((1,) + y, self.moves):
                if ua:
                    for i, j, c in move:
                        q[i][j] += ua * c
            w = _digit_width(base_norms, q)
            m = [[b + (x << w) for b, x in zip(brow, qrow)] for brow, qrow in zip(self.base, q)]
            g = _eliminate(m, n) * m[-1][-1]
            half, mask = 1 << (w - 1), (1 << w) - 1
            for tab in tables:
                c = g & mask
                if c >= half:
                    c -= mask + 1
                tab.append(c)
                g = (g - c) >> w
        _newton_stirling(yplan, tables)
        scale = self.den ** n * factorial(reach)
        return [MultiPoly._canonical(zero.vars, {(i - sum(b),) + b: Fraction(c, scale)
                                                 for b, c in zip(yplan.grid, tab) if c})
                for i, tab in enumerate(tables)] + [zero] * (top - reach)

    def _check_variables(self, variables):
        if len(variables) != len(self.moves):
            raise ValueError("pencil with %d moves in %d variables"
                             % (len(self.moves), len(variables)))

    def _row_bound(self):
        """The sum of the row degrees of the pencil: 1 for a row that a move
        touches, 0 for a row of the base only; -1 if a row is zero, which
        makes the determinant zero."""
        moving = {i for move in self.moves for i, _, _ in move}
        rows = [1 if i in moving else 0 if any(row) else -1
                for i, row in enumerate(self.base)]
        return -1 if -1 in rows else sum(rows)

    def poly_matrix(self, variables) -> PolyMatrix:
        """The pencil as a PolyMatrix in the variables (one per move)."""
        nmoves = len(self.moves)
        terms = [[{(0,) * nmoves: Fraction(x, self.den)} if x else {} for x in row]
                 for row in self.base]
        for a, move in enumerate(self.moves):
            e = tuple(int(a == b) for b in range(nmoves))
            for i, j, c in move:
                terms[i][j][e] = Fraction(c, self.den)
        return PolyMatrix([[MultiPoly(variables, t) for t in row] for row in terms])


def det_interpolate(m: PolyMatrix, degree=None) -> MultiPoly:
    """Determinant of an affine PolyMatrix, read as a Pencil.

    The constant coefficients of the entries form the base and the
    coefficients of each variable one move; Pencil.det_poly does the rest.
    Raises ValueError if an entry has degree > 1 (use det_bareiss) or if
    m is not square.
    """
    if any(sum(e) > 1 for row in m.entries for p in row for e in p.terms):
        raise ValueError("det_interpolate needs entries of degree <= 1")
    k = len(m.vars)
    monomials = [(0,) * k] + [tuple(int(a == b) for b in range(k)) for a in range(k)]
    base, *moves = [[[p.coeff(e) for p in row] for row in m.entries] for e in monomials]
    return Pencil(base, moves).det_poly(m.vars, degree)


def det_poly_matrix(m: PolyMatrix) -> MultiPoly:
    """Exact determinant by Bareiss over Q[t]; identical to cofactor expansion."""
    if not m.is_square():
        raise ValueError("determinant of a non-square matrix")
    if m.rows > MAX_SIDE:
        raise ValueError("side %d exceeds the supported bound %d" % (m.rows, MAX_SIDE))
    return det_bareiss(m)


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
