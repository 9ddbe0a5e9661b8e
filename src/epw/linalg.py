"""Exact linear algebra over the rationals.

Matrices are lists of lists of Fraction; vectors are lists of Fraction.
Every function returns fresh objects and never mutates its arguments,
so values can be shared freely between threads or worker pools.

The hot routines scale their input to integers once (scaled_int_rows,
one as_integer_ratio per entry) and run on integer rows: det and inverse
on the Bareiss elimination of zlinalg, and restrict_gram, the one
congruence product rows g rows^t that carries a form to another basis, on
int_gram.  rref, rank, nullspace and solve share one fraction-free
Gauss-Jordan loop on integer rows (_gauss_jordan): rank counts its pivots,
nullspace reads its primitive integer kernel (_kernel), rref divides each
row by its pivot once, and solve carries all its right sides through one
elimination.  Callers that already hold integer rows (varquad, and the
sublattice coordinates of lattices) call _gauss_jordan and _kernel
directly and meet Fractions only at their outputs.
"""

from fractions import Fraction
from math import gcd, lcm

from .zlinalg import bareiss_solve, int_det, int_gram


def frac(x) -> Fraction:
    """Coerce ints, strings like '3/4' and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("floats are not allowed in exact computations: %r" % (x,))
    return Fraction(x)


def scaled_int_rows(rows):
    """(L, [[L * x for x in row] for row in rows]) for rows of Fractions or
    ints, with L the lcm of all their denominators (1 if there are none).
    Each entry is read once, by as_integer_ratio; a float raises frac's
    TypeError."""
    ratios = [[(frac(x) if isinstance(x, float) else x).as_integer_ratio() for x in row]
              for row in rows]
    den = lcm(*(d for row in ratios for _, d in row))
    return den, [[n * (den // d) for n, d in row] for row in ratios]


def scaled_ints(xs):
    """(L, [L * x for x in xs]): scaled_int_rows for a single row."""
    den, (ints,) = scaled_int_rows((xs,))
    return den, ints


def fvec(xs):
    return [frac(x) for x in xs]


def fmat(rows):
    return [fvec(r) for r in rows]


def zeros(r, c):
    return [[Fraction(0)] * c for _ in range(r)]


def identity(n):
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = Fraction(1)
    return m


def transpose(m):
    return [list(col) for col in zip(*m)]


def mat_vec(a, v):
    """a v: a and v are each scaled to integers once, and each entry is one
    Fraction.  Raises ValueError when a row's length is not len(v)."""
    if any(len(row) != len(v) for row in a):
        raise ValueError("vector of length %d does not match the matrix rows" % len(v))
    ad, ai = scaled_int_rows(a)
    vd, vi = scaled_ints(fvec(v))
    den = ad * vd
    return [Fraction(sum(x * y for x, y in zip(row, vi)), den) for row in ai]


def is_symmetric(m):
    n = len(m)
    return all(len(r) == n for r in m) and all(
        m[i][j] == m[j][i] for i in range(n) for j in range(i + 1, n)
    )


def _primitive(row):
    """An integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def _gauss_jordan(rows, ncols):
    """Fraction-free Gauss-Jordan on integer rows, pivoting only in the
    first ncols columns; any further columns (right sides) are carried
    along.  Returns (a, pivot_columns) with a the reduced integer rows;
    the input rows are not changed.

    Each row is first divided by its gcd, a row update is pivot * row -
    entry * pivot_row and is divided by its gcd.  Rows only change by
    nonzero factors, so the pivots, and each row divided by its pivot,
    are those of Fraction Gauss-Jordan on any rational multiple of the
    rows.
    """
    a = [_primitive(row) for row in rows]
    nrows = len(a)
    pivots = []
    lead = 0
    for col in range(ncols):
        if lead == nrows:
            break
        piv = None
        for i in range(lead, nrows):
            if a[i][col]:
                piv = i
                break
        if piv is None:
            continue
        a[lead], a[piv] = a[piv], a[lead]
        p = a[lead]
        pc = p[col]
        for i in range(nrows):
            f = a[i][col]
            if f and i != lead:
                a[i] = _primitive([pc * x - f * y for x, y in zip(a[i], p)])
        pivots.append(col)
        lead += 1
    return a, pivots


def _kernel(a, pivots, cols):
    """The kernel of reduced integer rows (a, pivots) of _gauss_jordan with
    cols columns, as [(j, w)]: one primitive integer vector w per free
    column j, positive at j and 0 at the other free columns, so w / w[j]
    is the canonical kernel vector of nullspace.
    """
    out = []
    pivot_set = set(pivots)
    for j in range(cols):
        if j in pivot_set:
            continue
        lead = lcm(*(row[p] for row, p in zip(a, pivots) if row[j]))
        w = [0] * cols
        w[j] = lead
        for row, p in zip(a, pivots):
            if row[j]:
                w[p] = -row[j] * (lead // row[p])
        out.append((j, _primitive(w)))
    return out


def rref(m):
    """Reduced row echelon form.  Returns (R, pivot_columns).

    R is read off _gauss_jordan with one Fraction(x, pivot) per entry.
    """
    cols = len(m[0]) if m else 0
    a, pivots = _gauss_jordan(scaled_int_rows(m)[1], cols)
    zero = Fraction(0)
    r = [[Fraction(x, row[c]) if x else zero for x in row] for row, c in zip(a, pivots)]
    r.extend([zero] * cols for _ in range(len(a) - len(pivots)))
    return r, pivots


def rank(m):
    """The number of pivots of _gauss_jordan; no Fraction is formed."""
    if not m:
        return 0
    return len(_gauss_jordan(scaled_int_rows(m)[1], len(m[0]))[1])


def row_basis(m):
    """Nonzero rows of the reduced echelon form (canonical basis of the row space)."""
    r, pivots = rref(m)
    return [r[i] for i in range(len(pivots))]


def nullspace(m):
    """Basis of {x : m x = 0}, one vector per free column, canonical form:
    the primitive integer kernel of _kernel, each vector divided by its
    free coordinate."""
    if not m:
        return []
    cols = len(m[0])
    a, pivots = _gauss_jordan(scaled_int_rows(m)[1], cols)
    return [[Fraction(x, w[j]) for x in w] for j, w in _kernel(a, pivots, cols)]


def solve(a, b):
    """A solution x of a x = b, with its free coordinates 0, or None if
    the system is inconsistent.

    b is one right side, or a list of right sides, which gives the list
    of their solutions (None for each inconsistent side).  All sides go
    through one _gauss_jordan of [a | b_1 ... b_k] that pivots in the
    columns of a only.
    """
    several = not b or isinstance(b[0], (list, tuple))
    sides = b if several else [b]
    rows, cols = len(a), len(a[0]) if a else 0
    if any(len(side) != rows for side in sides):
        raise ValueError("right side of length other than %d" % rows)
    _, aug = scaled_int_rows([list(a[i]) + [frac(side[i]) for side in sides]
                              for i in range(rows)])
    r, pivots = _gauss_jordan(aug, cols)
    out = []
    for c in range(cols, cols + len(sides)):
        if any(row[c] for row in r[len(pivots):]):
            out.append(None)
            continue
        x = [Fraction(0)] * cols
        for row, p in zip(r, pivots):
            x[p] = Fraction(row[c], row[p])
        out.append(x)
    return out if several else out[0]


def inverse(m):
    """Exact inverse: one fraction-free solve of the integer-scaled matrix
    L m against L * identity, divided once by its determinant."""
    den, a = scaled_int_rows(m)
    n = len(a)
    d, y = bareiss_solve(a, [[den if i == j else 0 for j in range(n)] for i in range(n)])
    if y is None:
        raise ValueError("matrix is singular")
    return [[Fraction(x, d) for x in row] for row in y]


def det(m):
    """Exact determinant: rows scaled to integers by one lcm L, then
    int_det(L m) / L^n."""
    den, a = scaled_int_rows(m)
    return Fraction(int_det(a), den ** len(a))


def stack(*mats):
    out = []
    for m in mats:
        out.extend(row[:] for row in m)
    return out


def intersect_rowspaces(a, b):
    """Canonical basis of rowspace(a) ∩ rowspace(b)."""
    if not a or not b:
        return []
    ra, rb = row_basis(a), row_basis(b)
    if not ra or not rb:
        return []
    # x·ra = y·rb  <=>  (x, y) in kernel of [ra^t | -rb^t]
    cols = len(ra) + len(rb)
    sys_rows = len(ra[0])
    sysm = [[ra[i][t] for i in range(len(ra))] + [-rb[j][t] for j in range(len(rb))]
            for t in range(sys_rows)]
    out = []
    for k in nullspace(sysm):
        x = k[: len(ra)]
        v = [sum(x[i] * ra[i][t] for i in range(len(ra))) for t in range(sys_rows)]
        if any(c != 0 for c in v):
            out.append(v)
    return row_basis(out) if out else []


def restrict_gram(g, rows):
    """The Gram matrix rows g rows^t of the form g on the given rows.

    g and the rows are each scaled to integers once, zlinalg.int_gram
    forms the product, and each entry is one Fraction.  Raises ValueError
    when a row's length is not the side of g.
    """
    gd, gi = scaled_int_rows(g)
    rd, ri = scaled_int_rows([fvec(r) for r in rows])
    den = gd * rd * rd
    return [[Fraction(x, den) for x in row] for row in int_gram(gi, ri)]

