"""Exact arithmetic used to check the program's outputs by another route.

Nothing here calls into `epw`: determinants are plain Fraction Gaussian
elimination, the moving Pluecker Gram is rebuilt from index signs, and
polynomials are read back from the CLI's canonical text.
"""

from fractions import Fraction
from itertools import combinations

PAIRS5 = tuple(combinations(range(5), 2))


def perm_sign(seq):
    """Sign of a sequence of distinct integers against sorted order."""
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def pluecker_matrices():
    """B[a][i][j] = sign of e_a ^ beta_i ^ beta_j in Lambda^5 of the chart,
    beta running over the lexicographic bivector basis of Lambda^2."""
    mats = []
    for a in range(5):
        m = [[0] * 10 for _ in range(10)]
        for i, p in enumerate(PAIRS5):
            for j, q in enumerate(PAIRS5):
                seq = (a,) + p + q
                if len(set(seq)) == 5:
                    m[i][j] = perm_sign(seq)
        mats.append(m)
    return mats


B5 = pluecker_matrices()


def pencil_at(gram, t):
    """The numeric local pencil G_A - q_v(t) at chart coordinates t."""
    return [[gram[i][j] - sum(t[a] * B5[a][i][j] for a in range(5)) for j in range(10)]
            for i in range(10)]


def det(m):
    """Determinant of a square matrix of rationals by Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    result = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            result = -result
        p = a[col][col]
        result *= p
        for r in range(col + 1, n):
            f = a[r][col] / p
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return result


def cofactors(m):
    """cof[i][j] = (-1)^(i+j) times the minor deleting row i and column j."""
    n = len(m)
    if n == 1:
        return [[Fraction(1)]]
    return [[(-1) ** (i + j) * det([[m[r][c] for c in range(n) if c != j]
                                    for r in range(n) if r != i])
             for j in range(n)] for i in range(n)]


def parse_poly(text):
    """Terms of a polynomial in the CLI's text form, e.g. "-3/5*t1^2*t2 + 4".

    Returns a list of (coefficient, {variable: exponent}).
    """
    text = text.strip()
    if text == "0":
        return []
    tokens = text.split(" ")
    if len(tokens) % 2 == 0:
        raise ValueError("malformed polynomial text")
    bodies = [tokens[0]]
    for sign, body in zip(tokens[1::2], tokens[2::2]):
        if sign not in ("+", "-"):
            raise ValueError("malformed polynomial text")
        bodies.append(body if sign == "+" else "-" + body)
    terms = []
    for body in bodies:
        neg = body.startswith("-")
        coeff = Fraction(1)
        mono = {}
        for factor in body.lstrip("-").split("*"):
            if factor[0].isdigit():
                coeff *= Fraction(factor)
            else:
                name, _, exp = factor.partition("^")
                mono[name] = mono.get(name, 0) + int(exp or 1)
        terms.append((-coeff if neg else coeff, mono))
    return terms


def degree(terms):
    return max((sum(m.values()) for _, m in terms), default=-1)


def split_at(terms, point, keep):
    """Evaluate every variable not in `keep` at `point`; returns the
    coefficients of the remaining monomials as {exponent tuple: value}."""
    out = {}
    for coeff, mono in terms:
        value = coeff
        key = tuple(mono.get(v, 0) for v in keep)
        for name, exp in mono.items():
            if name not in keep:
                value *= point[name] ** exp
        out[key] = out.get(key, 0) + value
    return {k: v for k, v in out.items() if v != 0}
