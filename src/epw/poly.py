"""Exact multivariate polynomials over the rationals.

A MultiPoly is an immutable-by-convention pair (variables, terms) where
terms maps exponent tuples to nonzero Fraction coefficients.  The
canonical term order is graded lexicographic (higher total degree first,
ties broken by the exponent tuple), so printed polynomials are byte
stable.  No floats anywhere.

Products of two polynomials run on one packed integer kernel (after
Monagan-Pearce, CASC 2007).  Each operand's denominators are cleared once
by their lcm, each exponent vector is packed into one int with a field
of (deg f + deg g).bit_length() bits per variable -- no product exponent
exceeds deg f + deg g, so fields never carry -- and the convolution adds
int products under int keys.  The sums are unpacked by shift and mask,
zero sums are dropped, and each coefficient is divided once by the
product of the two lcms.

The text form (to_text) sorts the terms once and prints each
coefficient from its integer numerator and denominator, each monomial
from one table of variable powers built per call; no Fraction is
compared, negated or printed, and nothing is held between calls.

MultiPoly(variables, terms) validates outside input; what this layer
computes is built by MultiPoly._canonical.  A polynomial is true iff
nonzero and // is the exact quotient, so zlinalg._eliminate runs on it.
"""

from fractions import Fraction

from .linalg import frac, scaled_ints

MAX_VARS = 8


def _grlex_key(e):
    return (sum(e), e)


def _packed(terms, shifts):
    """(lcm L of the denominators, [(packed exponent, L * coefficient)])."""
    den, ints = scaled_ints(terms.values())
    return den, [(sum(x << s for x, s in zip(e, shifts)), c) for e, c in zip(terms, ints)]


class MultiPoly:
    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms=None):
        """Validates: each exponent vector is a tuple of one non-negative
        int per variable (ValueError otherwise); zero terms are dropped."""
        variables = tuple(variables)
        if len(variables) > MAX_VARS:
            raise ValueError("at most %d variables supported" % MAX_VARS)
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        self.vars = variables
        clean = {}
        if terms:
            for e, c in terms.items():
                c = frac(c)
                if c == 0:
                    continue
                if (type(e) is not tuple or len(e) != len(variables)
                        or not all(type(x) is int and x >= 0 for x in e)):
                    raise ValueError("bad exponent vector %r" % (e,))
                clean[e] = c
        self.terms = clean

    @classmethod
    def _canonical(cls, variables, terms):
        """Builds from canonical terms, as they are: nonzero Fractions
        under exponent tuples of ints, in a valid variables tuple."""
        out = cls.__new__(cls)
        out.vars = variables
        out.terms = terms
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables):
        return cls(variables, {})

    @classmethod
    def const(cls, variables, c):
        c = frac(c)
        if c == 0:
            return cls.zero(variables)
        return cls(variables, {(0,) * len(tuple(variables)): c})

    @classmethod
    def var(cls, variables, name):
        variables = tuple(variables)
        e = [0] * len(variables)
        e[variables.index(name)] = 1
        return cls(variables, {tuple(e): Fraction(1)})

    # -- basic queries -------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, name):
        if not self.terms:
            return -1
        i = self.vars.index(name)
        return max(e[i] for e in self.terms)

    def coeff(self, e):
        return self.terms.get(tuple(e), Fraction(0))

    def constant_term(self):
        return self.terms.get((0,) * len(self.vars), Fraction(0))

    def leading(self):
        """(exponent, coefficient) of the graded-lex leading term."""
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    # -- arithmetic ----------------------------------------------------

    def _check(self, other):
        if self.vars != other.vars:
            raise ValueError("variable contexts differ: %r vs %r" % (self.vars, other.vars))

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.vars, other)
        self._check(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = t.get(e, Fraction(0)) + c
            if s == 0:
                t.pop(e, None)
            else:
                t[e] = s
        return MultiPoly._canonical(self.vars, t)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._canonical(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = frac(other)
            if c == 0:
                return MultiPoly.zero(self.vars)
            return MultiPoly._canonical(self.vars, {e: c * v for e, v in self.terms.items()})
        self._check(other)
        a, b = self.terms, other.terms
        if not a or not b:
            return MultiPoly._canonical(self.vars, {})
        # one field per variable, wide enough for any product exponent
        width = (self.degree() + other.degree()).bit_length()
        shifts = [width * i for i in range(len(self.vars))]
        mask = (1 << width) - 1
        da, pa = _packed(a, shifts)
        db, pb = _packed(b, shifts)
        acc = {}
        get = acc.get
        for ka, ca in pa:
            for kb, cb in pb:
                k = ka + kb
                acc[k] = get(k, 0) + ca * cb
        den = da * db
        return MultiPoly._canonical(self.vars, {tuple((k >> s) & mask for s in shifts):
                                                Fraction(c, den) for k, c in acc.items() if c})

    __rmul__ = __mul__

    def __floordiv__(self, other):
        """The exact quotient div_exact(self, other); p // 1 is p."""
        return self if other == 1 else div_exact(self, other)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = MultiPoly.const(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- calculus and substitution --------------------------------------

    def derivative(self, name):
        i = self.vars.index(name)
        t = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            e2 = list(e)
            e2[i] -= 1
            t[tuple(e2)] = c * e[i]
        return MultiPoly._canonical(self.vars, t)

    def evaluate(self, point):
        """Evaluate at a full point (sequence of rationals), in integers.

        The point is scaled once to p / q and the coefficients to integers
        by the lcm L of their denominators; with D the total degree,
        L q^D f(p / q) = sum_e (L c_e) p^e q^(D - |e|) is one integer sum,
        divided once at the end.
        """
        point = [frac(x) for x in point]
        if len(point) != len(self.vars):
            raise ValueError("point has wrong length")
        if not self.terms:
            return Fraction(0)
        q, p = scaled_ints(point)
        den, ints = scaled_ints(self.terms.values())
        d = self.degree()
        total = 0
        for e, c in zip(self.terms, ints):
            if q != 1:
                c *= q ** (d - sum(e))
            for x, k in zip(p, e):
                if k:
                    c *= x ** k
            total += c
        return Fraction(total, den * q ** d)

    def substitute(self, mapping):
        """Substitute polynomials (or rationals) for variables.

        mapping: dict name -> MultiPoly (all in one common target context)
        or name -> rational.  Unmapped variables must be present in the
        target context under the same name.
        """
        targets = [p for p in mapping.values() if isinstance(p, MultiPoly)]
        if targets:
            tvars = targets[0].vars
        else:
            tvars = self.vars
        images = []
        for name in self.vars:
            img = mapping.get(name)
            if img is None:
                img = MultiPoly.var(tvars, name)
            elif not isinstance(img, MultiPoly):
                img = MultiPoly.const(tvars, img)
            images.append(img)
        out = MultiPoly.zero(tvars)
        for e, c in self.sorted_terms():
            term = MultiPoly.const(tvars, c)
            for img, k in zip(images, e):
                if k:
                    term = term * img ** k
            out = out + term
        return out

    # -- printing --------------------------------------------------------

    def __repr__(self):
        return "MultiPoly(%r)" % (self.to_text(),)

    def __str__(self):
        return self.to_text()

    def to_text(self):
        """Canonical text form: graded-lex order, explicit ^ and *.

        A term is its coefficient n/d (n/d* before a monomial, n alone when
        d = 1, nothing when n/d = 1) and its monomial; the first term
        carries a leading -, the others + or -.  The terms are sorted once,
        each monomial is joined from one table of the powers v, v^2, ...
        of each variable, built for this call, and each coefficient is
        printed from its integer numerator and denominator."""
        terms = self.terms
        if not terms:
            return "0"
        powers = [[""] + [v] + ["%s^%d" % (v, k) for k in range(2, top + 1)]
                  for v, top in zip(self.vars, map(max, zip(*terms)))]
        parts = []
        for e in sorted(terms, key=_grlex_key, reverse=True):
            c = terms[e]
            n, d = c.numerator, c.denominator
            if n < 0:
                n, sign = -n, "-"
            else:
                sign = "+"
            mono = "*".join([table[k] for table, k in zip(powers, e) if k])
            if not mono:
                body = "%d" % n if d == 1 else "%d/%d" % (n, d)
            elif d == 1:
                body = mono if n == 1 else "%d*%s" % (n, mono)
            else:
                body = "%d/%d*%s" % (n, d, mono)
            if parts:
                parts.append(sign + " " + body)
            else:
                parts.append(body if sign == "+" else "-" + body)
        return " ".join(parts)


def homogeneous_part(f: MultiPoly, i: int) -> MultiPoly:
    """The degree-i homogeneous piece; the pieces reassemble f exactly."""
    if i < 0:
        raise ValueError("degree must be nonnegative")
    return MultiPoly._canonical(f.vars, {e: c for e, c in f.terms.items() if sum(e) == i})


def homogeneous_parts(f: MultiPoly, up_to=None):
    """[f_0, ..., f_d], the homogeneous pieces of f up to degree d = up_to
    (deg f by default), sorted out of f's terms in one pass."""
    d = f.degree() if up_to is None else up_to
    parts = [{} for _ in range(max(d, 0) + 1)]
    for e, c in f.terms.items():
        i = sum(e)
        if i < len(parts):
            parts[i][e] = c
    return [MultiPoly._canonical(f.vars, t) for t in parts]


def is_homogeneous(f: MultiPoly, d=None):
    degs = {sum(e) for e in f.terms}
    if not degs:
        return True
    if d is None:
        return len(degs) == 1
    return degs == {d}


# ---------------------------------------------------------------------
# Exact division and gcd
# ---------------------------------------------------------------------

def _mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def div_exact(p: MultiPoly, d: MultiPoly) -> MultiPoly:
    """Exact quotient p/d; raises ValueError if the division is not exact.
    Each quotient term c x^e subtracts c x^e d from one remainder dict in
    place (Monagan-Pearce, J. Symb. Comp. 46, 2011)."""
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return MultiPoly.zero(p.vars)
    p._check(d)
    le_d, lc_d = d.leading()
    dterms = list(d.terms.items())
    q = {}
    r = dict(p.terms)
    while r:
        le_r = max(r, key=_grlex_key)
        if not _mono_divides(le_d, le_r):
            raise ValueError("division is not exact")
        e = tuple(a - b for a, b in zip(le_r, le_d))
        c = r[le_r] / lc_d
        q[e] = c
        for ed, cd in dterms:
            k = tuple(a + b for a, b in zip(e, ed))
            s = r.get(k, 0) - c * cd
            if s:
                r[k] = s
            else:
                del r[k]
    return MultiPoly._canonical(p.vars, q)


def divides(d: MultiPoly, p: MultiPoly) -> bool:
    try:
        div_exact(p, d)
        return True
    except ValueError:
        return False


def content_wrt(f: MultiPoly, name: str):
    """Content of f viewed in R[name]: gcd of the coefficient polynomials."""
    i = f.vars.index(name)
    coeffs = {}
    for e, c in f.terms.items():
        k = e[i]
        e2 = list(e)
        e2[i] = 0
        coeffs.setdefault(k, {})[tuple(e2)] = c
    polys = [MultiPoly._canonical(f.vars, t) for t in coeffs.values()]
    g = polys[0]
    for p in polys[1:]:
        g = poly_gcd(g, p)
        if g.degree() == 0:
            break
    return g


def _normalize(f: MultiPoly) -> MultiPoly:
    """Scale so the graded-lex leading coefficient is 1."""
    if f.is_zero():
        return f
    _, lc = f.leading()
    return f * (Fraction(1) / lc)


def poly_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """The gcd scaled to graded-lex leading coefficient 1, so it is unique:
    primitive pseudo-remainder sequences in the first active variable, the
    same loop whether one variable is active or several."""
    if f.vars != g.vars:
        raise ValueError("variable contexts differ")
    if f.is_zero():
        return _normalize(g)
    if g.is_zero():
        return _normalize(f)
    active = [v for v in f.vars if f.degree_in(v) > 0 or g.degree_in(v) > 0]
    if not active:
        return MultiPoly.const(f.vars, 1)
    x = active[0]
    cf, cg = content_wrt(f, x), content_wrt(g, x)
    a, b = _primitive(f, cf), _primitive(g, cg)
    cont = poly_gcd(cf, cg)
    while True:
        if b.is_zero():
            res = a
            break
        r = _pseudo_rem(a, b, x)
        if r.is_zero():
            res = b
            break
        a, b = b, _primitive(r, content_wrt(r, x))
        if b.degree_in(x) <= 0:
            res = MultiPoly.const(f.vars, 1)
            break
    return _normalize(_primitive(res, content_wrt(res, x)) * cont)


def _primitive(f: MultiPoly, content: MultiPoly) -> MultiPoly:
    """f divided by its content, scaled to leading coefficient 1; over Q a
    constant content is a unit, and the scaling keeps the coefficients of a
    univariate sequence from growing."""
    return _normalize(f if content.degree() == 0 else div_exact(f, content))


def _coeff_in(f: MultiPoly, name: str, k: int) -> MultiPoly:
    i = f.vars.index(name)
    t = {}
    for e, c in f.terms.items():
        if e[i] == k:
            e2 = list(e)
            e2[i] = 0
            t[tuple(e2)] = c
    return MultiPoly._canonical(f.vars, t)


def _pseudo_rem(a: MultiPoly, b: MultiPoly, x: str) -> MultiPoly:
    """Pseudo-remainder of a by b with respect to the main variable x."""
    i, db = a.vars.index(x), b.degree_in(x)
    lb = _coeff_in(b, x, db)
    if lb.degree() == 0:   # a constant: __mul__'s scalar branch, not the packed kernel
        lb = lb.constant_term()
    r = a
    while not r.is_zero() and r.degree_in(x) >= db:
        dr = r.degree_in(x)
        # the leading coefficient of r in x, times x^(dr - db)
        lead = MultiPoly._canonical(a.vars, {e[:i] + (dr - db,) + e[i + 1:]: c
                                             for e, c in r.terms.items() if e[i] == dr})
        r = r * lb - b * lead
    return r


def squarefree_part(f: MultiPoly) -> MultiPoly:
    """Product of the distinct irreducible factors of f, up to scalar.

    Computed as f / gcd(f, df/dx1, ..., df/dxn); f is reduced iff the
    result has the same total degree as f.  At most three active
    variables; with exactly three the input must be homogeneous (the
    plane-curve case), and the computation dehomogenizes, which is a
    bijection on the factors away from the chosen line.
    """
    if f.is_zero():
        raise ValueError("squarefree part of the zero polynomial")
    active = [v for v in f.vars if f.degree_in(v) > 0]
    if len(active) > 3:
        raise ValueError("squarefree_part supports at most 3 variables")
    if len(active) == 3:
        return _squarefree_homogeneous3(f, active)
    g = f
    for v in active:
        g = poly_gcd(g, f.derivative(v))
        if g.degree() == 0:
            break
    return _normalize(div_exact(f, g))


def _squarefree_homogeneous3(f: MultiPoly, active) -> MultiPoly:
    if not is_homogeneous(f):
        raise ValueError("squarefree_part in 3 variables expects a homogeneous input")
    # strip powers of a coordinate not dividing the rest, then dehomogenize
    z = None
    for v in active:
        if not divides(MultiPoly.var(f.vars, v), f):
            z = v
            break
    zk = 0
    g = f
    if z is None:
        # every active variable divides f; strip one of them
        z = active[0]
    while divides(MultiPoly.var(f.vars, z), g):
        g = div_exact(g, MultiPoly.var(f.vars, z))
        zk += 1
    deh = g.substitute({z: MultiPoly.const(f.vars, 1)})
    sf2 = squarefree_part(deh)
    # rehomogenize to the degree of the squarefree part of g
    d = sf2.degree()
    zi = f.vars.index(z)
    terms = {}
    for e, c in sf2.terms.items():
        e2 = list(e)
        e2[zi] = d - sum(e)
        terms[tuple(e2)] = c
    out = MultiPoly._canonical(f.vars, terms)
    if zk > 0:
        out = out * MultiPoly.var(f.vars, z)
    return _normalize(out)


# ---------------------------------------------------------------------
# Canonical text parsing (inverse of to_text)
# ---------------------------------------------------------------------

def poly_from_text(text: str, variables) -> MultiPoly:
    """Parse the canonical text form produced by to_text."""
    variables = tuple(variables)
    s = text.replace(" ", "")
    if s in ("", "0"):
        return MultiPoly.zero(variables)
    # split into signed chunks
    chunks = []
    cur = ""
    for ch in s:
        if ch in "+-" and cur and cur[-1] not in "+-*^/":
            chunks.append(cur)
            cur = ch
        else:
            cur += ch
    chunks.append(cur)
    terms = {}
    for chunk in chunks:
        sign = Fraction(1)
        while chunk and chunk[0] in "+-":
            if chunk[0] == "-":
                sign = -sign
            chunk = chunk[1:]
        coeff = Fraction(1)
        e = [0] * len(variables)
        for factor in chunk.split("*"):
            if not factor:
                raise ValueError("empty factor in %r" % (text,))
            if factor[0].isdigit():
                coeff *= Fraction(factor)
            else:
                if "^" in factor:
                    name, k = factor.split("^")
                    k = int(k)
                else:
                    name, k = factor, 1
                if name not in variables:
                    raise ValueError("unknown variable %r" % (name,))
                e[variables.index(name)] += k
        key = tuple(e)
        terms[key] = terms.get(key, Fraction(0)) + sign * coeff
    return MultiPoly(variables, terms)


# ---------------------------------------------------------------------
# JSON form
# ---------------------------------------------------------------------

def poly_to_json(f: MultiPoly) -> dict:
    return {
        "kind": "polynomial",
        "variables": list(f.vars),
        "terms": [
            {"exponents": list(e), "coeff": str(c)} for e, c in f.sorted_terms()
        ],
    }


def quadratic_form_gram(f: MultiPoly):
    """Symmetric Gram matrix of a (at most) quadratic polynomial's degree-2
    part, over the full variable context."""
    n = len(f.vars)
    g = [[Fraction(0)] * n for _ in range(n)]
    for e, c in homogeneous_part(f, 2).terms.items():
        idx = [i for i, k in enumerate(e) for _ in range(k)]
        i, j = idx[0], idx[1]
        if i == j:
            g[i][i] = c
        else:
            g[i][j] += c / 2
            g[j][i] += c / 2
    return g


def quadratic_form_rank(f: MultiPoly) -> int:
    from .linalg import rank

    return rank(quadratic_form_gram(f))
