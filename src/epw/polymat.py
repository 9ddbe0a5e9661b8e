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
  interpolated and divided once by L^side.  det_poly walks the grid line
  by line in the last variable: the p rows and columns that the last move
  never touches lead, one Bareiss prefix of p steps
  (zlinalg._eliminate) per line leaves their pivot D and the trailing
  block of bordered minors, and each point of the line adds t D M_last to
  that block and resumes the elimination from D (prev=D) for the last q
  steps.  On the chart pencil p = 4 (the pairs containing e5) and q = 6.
  A line whose prefix block is singular takes one int_det per point.
  det_interpolate reads an affine PolyMatrix into a Pencil.
  Pencil.graded_parts(variables, top) is the graded route: only the
  homogeneous parts Phi_0..Phi_top, from the univariate
  det(base + s Q_u) along the directions u = (1, y) of one triangular
  y-grid of degree top, each a fresh integer matrix eliminated in place
  (zlinalg._eliminate).  varquad's statements read it to the last piece
  each uses: the kernel block to Phi_k (k = cork q_*), the vanishing
  kernel to Phi_2k, the corank-one rank formula Phi_2.
* cofactor expansion (det_cofactor): the reference oracle, small sides
  only.

The interpolation core (interpolate_poly_map) works for any
vector-valued polynomial map and is reused to reconstruct Schur
complement matrices entrywise.  It calls the oracle once per point of
the triangular grid {a in N^n : |a| <= degree}, builds the Newton table
of forward differences in place in integer arithmetic, one variable at a
time, converts the binomial Newton basis to monomials by Stirling
numbers of the first kind, and divides once per coefficient at the end.
The graded route runs its univariate step and its y-grid on the same
integer core (_newton_stirling).
"""

from fractions import Fraction
from math import factorial, prod

from .linalg import frac, scaled_int_rows, scaled_ints
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


def _newton_stirling(grid, degree, tables):
    """The integer core of interpolation on the triangular grid.

    Each table holds integer values at the points of grid =
    _simplex_grid(nvars, degree), in its order.  In place, it becomes the
    integer monomial coefficients, indexed like the grid, of degree!
    times the interpolating polynomial of total degree <= degree: the
    forward differences of the Newton form, the weights degree!/prod_i
    a_i! that turn binomials into falling factorials, and Stirling
    numbers of the first kind, each one variable at a time.
    """
    index = {a: p for p, a in enumerate(grid)}
    lines = [line for i in range(len(grid[0])) for line in _grid_lines(grid, index, i)]
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
    integers by the lcm L of their denominators, and _newton_stirling
    turns the tables into degree! times the monomial coefficients in
    integer arithmetic; each coefficient is divided by L * degree! once
    at the end.
    """
    variables = MultiPoly.zero(variables).vars  # validated once, for _canonical
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
    _newton_stirling(grid, degree, tables)
    scale = den * factorial(degree)
    return [MultiPoly._canonical(variables, {a: Fraction(c, scale)
                                             for a, c in zip(grid, tab) if c})
            for tab in tables]


class Pencil:
    """The affine pencil base + sum_a t_a moves[a] of square rational matrices.

    Base and moves are scaled to integers by one lcm L of all their
    denominators.  at(t) returns (s, m) with m = s * (base + sum_a t_a
    moves[a]) an integer matrix, where s = L * lcm(denominators of t); on
    the integer interpolation grid s is L.  A point has one coordinate,
    and det_poly one variable, per move (ValueError otherwise).
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
        if len(pt) != len(self.moves):
            raise ValueError("pencil with %d moves at a point of %d coordinates"
                             % (len(self.moves), len(pt)))
        q, qt = scaled_ints(pt)
        m = [[x * q for x in row] for row in self.base]
        for t, move in zip(qt, self.moves):
            if t:
                for i, j, c in move:
                    m[i][j] += t * c
        return self.den * q, m

    def det(self, pt):
        """Exact determinant of the pencil at a rational point."""
        s, m = self.at(pt)
        return Fraction(int_det(m), s ** len(m))

    def det_poly(self, variables, degree=None) -> MultiPoly:
        """The determinant as a polynomial in the variables (one per move),
        interpolated from its integer values L^side det at the grid points
        and divided once by L^side (not at all when L is 1).

        The values come from a walk along the lines of the last variable
        (_line_walk): one Bareiss prefix per line, on the rows and columns
        the last move never touches, and per point only the trailing block
        that it moves.

        degree is a bound on its total degree.  It defaults to the row
        bound (_row_bound): the sum of the row degrees, -1 (a zero
        determinant) when a row is zero.
        """
        self._check_variables(variables)
        if degree is None:
            degree = self._row_bound()
        if degree < 0:
            return MultiPoly.zero(variables)
        f = interpolate_poly_map(self._line_walk(), variables, degree, 1)[0]
        return f if self.den == 1 else f * Fraction(1, self.den ** len(self.base))

    def _line_walk(self):
        """The oracle of det_poly: pt -> (int_det(at(pt)[1]),) at integer
        points, for points that come line by line, the points of one line
        differing only in their last coordinate.

        The p rows and p columns that the last move never touches are
        permuted to the front, once.  Along a line only the trailing q x q
        block then moves, by t times the last move's integer entries.  At
        the line's point with t = 0, one _eliminate(m0, p) leaves D, the
        last prefix pivot, and the trailing block of bordered (p +
        1)-minors (Sylvester's identity).  A bordered minor is linear in
        its corner entry with slope D, so at t the trailing block is that
        block plus t D times the last move; _eliminate(trail, q, prev=D)
        finishes the elimination of the whole matrix from there.  A line
        whose prefix block is singular takes int_det at each of its points,
        and so does the one point of a pencil without moves.
        """
        if not self.moves:
            return lambda pt: (int_det(self.at(pt)[1]),)
        n = len(self.base)
        last = self.moves[-1]
        moved_rows, moved_cols = {i for i, _, _ in last}, {j for _, j, _ in last}
        fixed_rows = [i for i in range(n) if i not in moved_rows]
        fixed_cols = [j for j in range(n) if j not in moved_cols]
        p = min(len(fixed_rows), len(fixed_cols))
        q = n - p
        rows = fixed_rows[:p] + [i for i in range(n) if i not in fixed_rows[:p]]
        cols = fixed_cols[:p] + [j for j in range(n) if j not in fixed_cols[:p]]
        perm = _perm_sign(rows) * _perm_sign(cols)
        step = [(rows.index(i) - p, cols.index(j) - p, c) for i, j, c in last]
        line = sign = pivot = trail = None

        def oracle(pt):
            nonlocal line, sign, pivot, trail
            if pt[:-1] != line:
                line = pt[:-1]
                m = self.at(line + (0,))[1]
                m = [[m[i][j] for j in cols] for i in rows]
                sign = perm * _eliminate(m, p)
                pivot = m[p - 1][p - 1] if p else 1
                trail = [row[p:] for row in m[p:]]
            if not sign:
                return (int_det(self.at(pt)[1]),)
            t = [row[:] for row in trail]
            x = pt[-1] * pivot
            for i, j, c in step:
                t[i][j] += x * c
            return (sign * _eliminate(t, q, pivot) * (t[-1][-1] if q else pivot),)

        return oracle

    def graded_parts(self, variables, top):
        """[Phi_0, ..., Phi_top]: the homogeneous parts of degree 0..top of
        det_poly(variables), without the parts above top.

        Along a direction u = (1, y) with y integral, g_u(s) = det(base +
        s Q_u), Q_u = sum_a u_a moves[a], is sum_i s^i Phi_i(u), of degree
        at most the row bound d of det_poly.  Its d + 1 values at s = 0..d
        (s = 0 is det(base) for every u; each further s is one fresh integer
        matrix base + s Q_u, eliminated in place by zlinalg._eliminate) fix
        Phi_i(u).  Phi_i(1, y) has degree <= i in y, so one
        triangular y-grid of degree min(top, d) fixes Phi_0..Phi_top at
        once, and Phi_i is its homogenization.  Both steps run on
        _newton_stirling, and each coefficient is divided once at the end.
        Parts above d are zero.
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
        det0 = int_det(self.base)
        if reach == 0:
            return [MultiPoly.const(variables, Fraction(det0, self.den ** n))] + [zero] * top
        ygrid = _simplex_grid(len(self.moves) - 1, reach)
        series = []  # series[p][s] = L^n g_u(s) at the direction u = (1, ygrid[p])
        for y in ygrid:
            step = {}
            for ua, move in zip((1,) + y, self.moves):
                if ua:
                    for i, j, c in move:
                        step[i, j] = step.get((i, j), 0) + ua * c
            vals = [det0]
            for s in range(1, d + 1):
                m = [row[:] for row in self.base]
                for (i, j), c in step.items():
                    m[i][j] += s * c
                vals.append(_eliminate(m, n) * m[-1][-1])
            series.append(vals)
        _newton_stirling(_simplex_grid(1, d), d, series)
        tables = [[vals[i] for vals in series] for i in range(reach + 1)]
        _newton_stirling(ygrid, reach, tables)
        scale = self.den ** n * factorial(d) * factorial(reach)
        return [MultiPoly._canonical(zero.vars, {(i - sum(b),) + b: Fraction(c, scale)
                                                 for b, c in zip(ygrid, tab) if c})
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
