"""Integer matrix routines for lattice arithmetic.

One fraction-free elimination kernel (Bareiss) behind the integer
determinant, the integer solve, the Schur data of local_model (by
Sylvester's identity), the line walk of polymat.Pencil.det_poly (a
prefix per line, resumed per point), polymat.Pencil.graded_parts (in
place) and, on polynomial entries, polymat.det_bareiss; the one
congruence product rows g rows^t, Smith normal form with unimodular
transforms, Hermite form for lattice bases and saturated kernels.  All else is integer
arithmetic; nothing is imported.
"""


def _eliminate(a, n, prev=1):
    """Bareiss elimination (Bareiss 1968) in place: n steps, pivoting in
    the first n rows and columns and eliminating every row below the pivot;
    further columns are carried along.  Entries are ints or MultiPolys:
    truth is nonzero, // divides exactly.

    Afterwards the first n columns are upper triangular and a[i][i] is
    the leading principal (i + 1)-minor of the row-permuted matrix, so
    a[n - 1][n - 1] is the determinant of its n x n block.  By Sylvester's
    identity each entry a[i][j] with i, j >= n is the (n + 1)-minor of the
    leading n x n block bordered by row i and column j, times the sign.
    Returns the sign of the row permutation, or 0 (leaving a partly
    eliminated) when a column has no pivot, i.e. when the leading n x n
    block is singular.

    prev resumes an elimination: if a is the trailing block left by p
    earlier steps on a larger matrix and prev its last pivot, the run is
    those steps p + 1..p + n, so a[n - 1][n - 1] is the leading (p +
    n)-minor of the larger matrix (row-permuted by both stages).
    """
    sign = 1
    for k in range(n):
        if not a[k][k]:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pivot_row = a[k]
        akk = pivot_row[k]
        cols = range(k + 1, len(pivot_row))
        for i in range(k + 1, len(a)):
            row = a[i]
            aik = row[k]
            for j in cols:
                row[j] = (akk * row[j] - aik * pivot_row[j]) // prev
            row[k] = 0
        prev = akk
    return sign


def int_det(m):
    """Determinant of an integer matrix by Bareiss elimination (exact)."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(map(int, row)) for row in m]
    return _eliminate(a, n) * a[n - 1][n - 1]


def bareiss_solve(m, rhs):
    """Fraction-free solve of an integer system with integer right sides.

    Returns (det, Y) with det = det(M) and M Y = det * rhs; Y is an
    integer matrix (Y = adj(M) rhs by Cramer's rule), so a caller
    divides once, or tests divisibility by det, at its boundary.  Y is
    None (and det 0) when M is singular.  The forward pass is the
    Bareiss kernel on [M | rhs]; back-substitution divides exactly.
    """
    n = len(m)
    if n == 0:
        return 1, []
    k = len(rhs[0]) if rhs and rhs[0] else 0
    a = [list(map(int, m[i])) + list(map(int, rhs[i] if rhs else [])) for i in range(n)]
    sign = _eliminate(a, n)
    if sign == 0:
        return 0, None
    dn = a[n - 1][n - 1]
    # z = dn * X is integral, so each step divides exactly by the pivot
    z = [None] * n
    for i in range(n - 1, -1, -1):
        row = a[i]
        z[i] = [(dn * row[n + c] - sum(row[t] * z[t][c] for t in range(i + 1, n))) // row[i]
                for c in range(k)]
    det = sign * dn
    return det, z if sign == 1 else [[-x for x in r] for r in z]


def int_gram(g, rows):
    """The integer Gram matrix rows g rows^t: one g b per row, then dot
    products, skipping the zero coordinates of each row.  Raises
    ValueError when a row's length is not the side of g."""
    n = len(g)
    if any(len(b) != n for b in rows):
        raise ValueError("row length does not match the %dx%d form" % (n, n))
    gb = []
    for b in rows:
        nz = [(j, x) for j, x in enumerate(b) if x]
        gb.append([sum(row[j] * x for j, x in nz) for row in g])
    return [[sum(x * y for x, y in zip(a, v) if x) for v in gb] for a in rows]


def int_adjugate(m):
    """Adjugate of an integer matrix by cofactor determinants (any rank)."""
    n = len(m)
    if n == 1:
        return [[1]]
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for jj in range(n):
            sub = [[m[r][c] for c in range(n) if c != i] for r in range(n) if r != jj]
            s = int_det(sub)
            out[i][jj] = s if (i + jj) % 2 == 0 else -s
    return out


def smith_normal_form(m):
    """Smith normal form with transforms.

    Returns (d, u, v) where u m v = d, u and v unimodular and d diagonal
    with d[i] | d[i+1].  d is returned as a full matrix of the same shape.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [list(map(int, row)) for row in m]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_op(i, j, q):  # row i -= q * row j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col i -= q * col j
        for r in a:
            r[i] -= q * r[j]
        for r in v:
            r[i] -= q * r[j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    t = 0
    while t < min(rows, cols):
        # find a pivot of minimal absolute value in the remaining block
        piv = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        dirty = False
        for i in range(t + 1, rows):
            if a[i][t] != 0:
                q = a[i][t] // a[t][t]
                row_op(i, t, q)
                if a[i][t] != 0:
                    dirty = True
        for j in range(t + 1, cols):
            if a[t][j] != 0:
                q = a[t][j] // a[t][t]
                col_op(j, t, q)
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # divisibility fix-up: pivot must divide the rest of the block
        bad = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            row_op(t, bad, -1)
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return a, u, v


def int_kernel(m):
    """Basis of the saturated kernel {x : m x = 0} of an integer matrix.

    Rows of the result form a basis of the kernel lattice.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if rows == 0:
        return [[int(i == j) for j in range(cols)] for i in range(cols)]
    d, _, v = smith_normal_form(m)
    zero_cols = [j for j in range(cols) if j >= rows or d[j][j] == 0]
    return [[v[i][j] for i in range(cols)] for j in zero_cols]


def hnf_row_basis(gens):
    """Row Hermite basis of the lattice spanned by integer row vectors.

    Returns a list of linearly independent rows (upper triangular shape).
    """
    a = [list(map(int, row)) for row in gens if any(row)]
    if not a:
        return []
    cols = len(a[0])
    out = []
    work = a
    for col in range(cols):
        pos = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        if not pos:
            work = rest
            continue
        while len(pos) > 1:
            pos.sort(key=lambda r: abs(r[col]))
            p = pos[0]
            newpos = [p]
            for r in pos[1:]:
                q = r[col] // p[col]
                r2 = [x - q * y for x, y in zip(r, p)]
                if r2[col] != 0:
                    newpos.append(r2)
                elif any(r2):
                    rest.append(r2)
            if len(newpos) == 1:
                pos = newpos
                break
            pos = newpos
        p = pos[0]
        if p[col] < 0:
            p = [-x for x in p]
        out.append(p)
        work = rest
    # reduce entries above pivots for a canonical-ish form
    for i in range(len(out) - 1, -1, -1):
        pc = next(j for j in range(cols) if out[i][j] != 0)
        for k in range(i):
            if out[k][pc] != 0:
                q = out[k][pc] // out[i][pc]
                out[k] = [x - q * y for x, y in zip(out[k], out[i])]
    return out

