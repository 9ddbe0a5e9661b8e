"""Exact linear algebra over the rationals.

Matrices are lists of lists of Fraction; vectors are lists of Fraction.
Every function returns fresh objects and never mutates its arguments,
so values can be shared freely between threads or worker pools.
"""

from fractions import Fraction


def frac(x) -> Fraction:
    """Coerce ints, strings like '3/4' and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("floats are not allowed in exact computations: %r" % (x,))
    return Fraction(x)


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


def mat_mul(a, b):
    n, k, c = len(a), len(b), len(b[0])
    assert len(a[0]) == k, "shape mismatch"
    bt = transpose(b)
    return [[sum(ra[t] * cb[t] for t in range(k)) for cb in bt] for ra in a]


def mat_vec(a, v):
    return [sum(row[j] * v[j] for j in range(len(v))) for row in a]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_eq(a, b):
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


def is_symmetric(m):
    n = len(m)
    return all(len(r) == n for r in m) and all(
        m[i][j] == m[j][i] for i in range(n) for j in range(i + 1, n)
    )


def rref(m):
    """Reduced row echelon form.  Returns (R, pivot_columns)."""
    r = [row[:] for row in m]
    rows = len(r)
    cols = len(r[0]) if rows else 0
    pivots = []
    lead = 0
    for col in range(cols):
        piv = None
        for i in range(lead, rows):
            if r[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        r[lead], r[piv] = r[piv], r[lead]
        inv = Fraction(1) / r[lead][col]
        r[lead] = [x * inv for x in r[lead]]
        for i in range(rows):
            if i != lead and r[i][col] != 0:
                f = r[i][col]
                r[i] = [x - f * y for x, y in zip(r[i], r[lead])]
        pivots.append(col)
        lead += 1
        if lead == rows:
            break
    return r, pivots


def rank(m):
    if not m:
        return 0
    return len(rref(m)[1])


def row_basis(m):
    """Nonzero rows of the reduced echelon form (canonical basis of the row space)."""
    r, pivots = rref(m)
    return [r[i] for i in range(len(pivots))]


def nullspace(m):
    """Basis of {x : m x = 0}, one vector per free column, canonical form."""
    if not m:
        return []
    r, pivots = rref(m)
    cols = len(m[0])
    free = [j for j in range(cols) if j not in pivots]
    basis = []
    for j in free:
        v = [Fraction(0)] * cols
        v[j] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -r[i][j]
        basis.append(v)
    return basis


def solve(a, b):
    """A solution x of a x = b, or None if inconsistent."""
    rows, cols = len(a), len(a[0])
    aug = [a[i][:] + [frac(b[i])] for i in range(rows)]
    r, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for i, p in enumerate(pivots):
        x[p] = r[i][cols]
    return x


def inverse(m):
    n = len(m)
    aug = [m[i][:] + identity(n)[i] for i in range(n)]
    r, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in r]


def det(m):
    """Determinant by fraction-free style elimination over Fraction."""
    n = len(m)
    a = [row[:] for row in m]
    sign = 1
    res = Fraction(1)
    for k in range(n):
        piv = None
        for i in range(k, n):
            if a[i][k] != 0:
                piv = i
                break
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        res *= a[k][k]
        inv = Fraction(1) / a[k][k]
        for i in range(k + 1, n):
            if a[i][k] != 0:
                f = a[i][k] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return sign * res


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


def in_rowspace(m, v):
    return rank(m) == rank(stack(m, [list(v)]))


def restrict_gram(g, basis_rows):
    """Gram matrix of the form g restricted to the span of the given rows."""
    b = [fvec(r) for r in basis_rows]
    gb = [mat_vec(g, v) for v in b]
    return [[sum(b[i][t] * gb[j][t] for t in range(len(g))) for j in range(len(b))]
            for i in range(len(b))]


def symmetric_diagonalize(g):
    """Congruent diagonalization of a symmetric matrix: returns (d, c) with
    c g c^t = diag(d).  Exact, used for signatures and quadratic-form ranks."""
    n = len(g)
    a = [row[:] for row in g]
    c = identity(n)
    for k in range(n):
        if a[k][k] == 0:
            piv = None
            for i in range(k + 1, n):
                if a[i][i] != 0:
                    piv = i
                    break
            if piv is not None:
                a[k], a[piv] = a[piv], a[k]
                for row in a:
                    row[k], row[piv] = row[piv], row[k]
                c[k], c[piv] = c[piv], c[k]
            else:
                # all remaining diagonal entries vanish; pull in an off-diagonal one
                found = None
                for i in range(k, n):
                    for j in range(i + 1, n):
                        if a[i][j] != 0:
                            found = (i, j)
                            break
                    if found:
                        break
                if found is None:
                    break
                i, j = found
                for t in range(n):
                    a[i][t] += a[j][t]
                for t in range(n):
                    a[t][i] += a[t][j]
                for t in range(n):
                    c[i][t] += c[j][t]
                if i != k:
                    a[k], a[i] = a[i], a[k]
                    for row in a:
                        row[k], row[i] = row[i], row[k]
                    c[k], c[i] = c[i], c[k]
        if a[k][k] == 0:
            continue
        for i in range(k + 1, n):
            if a[i][k] != 0:
                f = a[i][k] / a[k][k]
                for t in range(n):
                    a[i][t] -= f * a[k][t]
                for t in range(n):
                    a[t][i] -= f * a[t][k]
                for t in range(n):
                    c[i][t] -= f * c[k][t]
    return [a[i][i] for i in range(n)], c


def signature(g):
    """(positive, negative) inertia indices of a symmetric rational matrix."""
    d, _ = symmetric_diagonalize(fmat(g))
    pos = sum(1 for x in d if x > 0)
    neg = sum(1 for x in d if x < 0)
    return pos, neg
