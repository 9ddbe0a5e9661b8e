"""Polynomial core: arithmetic, grading, gcd/squarefree, serialization."""

from collections import Counter
from fractions import Fraction
from functools import cache
import inspect
import random
import textwrap

from hypothesis import given, settings, strategies as st
import pytest

from epw import poly
from epw.poly import (
    MAX_VARS, MultiPoly, homogeneous_part, homogeneous_parts, squarefree_part,
    div_exact, poly_gcd, poly_from_text, poly_to_json, quadratic_form_rank,
)
from epw.jsonio import polynomial_from_json

XY = ("x", "y")
XYZ = ("x", "y", "z")


def p(text, variables=XY):
    return poly_from_text(text, variables)


def rand_poly(rng, variables, deg=3, terms=6):
    out = MultiPoly.zero(variables)
    for _ in range(terms):
        e = [0] * len(variables)
        budget = rng.randint(0, deg)
        for _ in range(budget):
            e[rng.randrange(len(variables))] += 1
        out = out + MultiPoly(variables, {tuple(e): Fraction(rng.randint(-5, 5))})
    return out


def test_basic_arithmetic():
    x = MultiPoly.var(XY, "x")
    y = MultiPoly.var(XY, "y")
    f = (x + y) * (x - y)
    assert f == x * x - y * y
    assert (x + 1) ** 2 == x * x + 2 * x + 1
    assert (x - x).is_zero()


# -- the packed integer product kernel ---------------------------------------

def naive_product(f, g):
    """Reference product: tuple exponents, Fraction coefficients."""
    t = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            t[e] = t.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in t.items() if c != 0}


def rand_sparse(rng, variables, terms, max_exp, max_den):
    return MultiPoly(variables, {
        tuple(rng.randint(0, max_exp) for _ in variables):
            Fraction(rng.randint(-9, 9), rng.randint(1, max_den))
        for _ in range(terms)
    })


def assert_kernel_product(f, g):
    h = f * g
    assert h.vars == f.vars
    assert h.terms == naive_product(f, g)
    for e, c in h.terms.items():
        assert type(c) is Fraction and c != 0
        assert all(type(x) is int for x in e)
    return h


def test_product_matches_naive_in_0_to_8_variables():
    rng = random.Random(21)
    for n in range(MAX_VARS + 1):
        variables = tuple("v%d" % i for i in range(n))
        for _ in range(6):
            f = rand_sparse(rng, variables, rng.randint(1, 12), 4, 6)
            g = rand_sparse(rng, variables, rng.randint(1, 12), 4, 6)
            assert_kernel_product(f, g)


def test_product_large_exponents_fill_the_packed_fields():
    rng = random.Random(22)
    for n in (1, 2, 3, 5, MAX_VARS):
        variables = tuple("v%d" % i for i in range(n))
        for _ in range(4):
            f = rand_sparse(rng, variables, 5, 700, 3)
            g = rand_sparse(rng, variables, 5, 700, 3)
            assert_kernel_product(f, g)
    x = MultiPoly.var(XYZ, "x")
    y = MultiPoly.var(XYZ, "y")
    z = MultiPoly.var(XYZ, "z")
    # degree sums 255 (an 8-bit field filled to its mask) and 256 (9 bits)
    h = assert_kernel_product(x ** 200 + z, x ** 55 + y)
    assert h.coeff((255, 0, 0)) == 1
    h = assert_kernel_product(x ** 255 + y ** 255, x + z)
    assert h.coeff((256, 0, 0)) == 1 and h.coeff((0, 255, 1)) == 1
    h = assert_kernel_product(y ** 300 * z ** 7 - x ** 257, z ** 500 + y ** 3)
    assert h.coeff((0, 303, 7)) == 1 and h.coeff((257, 0, 500)) == -1


def test_product_nontrivial_denominators():
    rng = random.Random(23)
    primes = (2, 3, 7, 101, 65537, 1000003)
    for _ in range(20):
        f = MultiPoly(XYZ, {
            tuple(rng.randint(0, 3) for _ in range(3)):
                Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.choice(primes) ** rng.randint(1, 3))
            for _ in range(8)
        })
        g = rand_sparse(rng, XYZ, 8, 3, 10 ** 9)
        assert_kernel_product(f, g)
    half = MultiPoly.const(XY, Fraction(1, 2))
    assert (half * p("2*x + 4/3*y")).terms == p("x + 2/3*y").terms


def test_product_cancellation():
    x = MultiPoly.var(XY, "x")
    y = MultiPoly.var(XY, "y")
    assert assert_kernel_product(x + y, x - y) == x * x - y * y
    # every middle term of the telescoping product cancels
    geometric = MultiPoly(XY, {(i, 0): 1 for i in range(40)})
    h = assert_kernel_product(geometric, 1 - x)
    assert h.terms == {(0, 0): 1, (40, 0): -1}
    h = assert_kernel_product(p("1/3*x - 1/2*y"), p("1/3*x + 1/2*y"))
    assert h == p("1/9*x^2 - 1/4*y^2")


def test_product_with_a_zero_operand():
    f = p("3/2*x^2*y - y + 5")
    zero = MultiPoly.zero(XY)
    for h in (f * zero, zero * f, zero * zero, f * 0, 0 * f, f * Fraction(0)):
        assert h.is_zero() and h.vars == XY
    empty = MultiPoly.zero(())
    assert (empty * MultiPoly.const((), 7)).is_zero()


def test_product_constant_times_constant():
    for variables in ((), XY, tuple("v%d" % i for i in range(MAX_VARS))):
        a = MultiPoly.const(variables, Fraction(2, 3))
        b = MultiPoly.const(variables, Fraction(-9, 4))
        h = assert_kernel_product(a, b)
        assert h == MultiPoly.const(variables, Fraction(-3, 2))
    assert MultiPoly.const(XY, 6) * MultiPoly.const(XY, Fraction(1, 6)) == MultiPoly.const(XY, 1)


def test_product_rmul_and_pow():
    assert MultiPoly.__rmul__ is MultiPoly.__mul__
    rng = random.Random(24)
    for _ in range(10):
        f = rand_sparse(rng, XYZ, 5, 3, 5)
        assert 3 * f == f * 3
        assert Fraction(2, 7) * f == f * Fraction(2, 7)
        assert f ** 0 == MultiPoly.const(XYZ, 1)
        assert f ** 1 == f
        expected = MultiPoly.const(XYZ, 1)
        for k in range(1, 5):
            expected = MultiPoly(XYZ, naive_product(expected, f))
            assert f ** k == expected
    with pytest.raises(ValueError):
        MultiPoly.var(XY, "x") * MultiPoly.var(XYZ, "x")


def test_grading_reassembles():
    f = p("1 + x + x*y")
    assert homogeneous_part(f, 2) == p("x*y")
    assert homogeneous_part(MultiPoly.zero(XY), 3).is_zero()
    rng = random.Random(11)
    for _ in range(20):
        f = rand_poly(rng, XYZ, deg=4)
        total = MultiPoly.zero(XYZ)
        for part in homogeneous_parts(f):
            total = total + part
        assert total == f
        # the one-pass split equals the per-degree pieces, below and above deg f
        for up_to in (0, 2, f.degree() + 2):
            assert homogeneous_parts(f, up_to) == [homogeneous_part(f, i) for i in range(up_to + 1)]
    assert homogeneous_parts(MultiPoly.zero(XY)) == [MultiPoly.zero(XY)]


def test_canonical_text_roundtrip():
    rng = random.Random(5)
    for _ in range(30):
        f = rand_poly(rng, XYZ)
        assert poly_from_text(f.to_text(), XYZ) == f
    assert MultiPoly.zero(XY).to_text() == "0"
    f = p("3/4*x^2*y - y + 5")
    assert f.to_text() == "3/4*x^2*y - y + 5"


# -- the text form from integer numerators ----------------------------------------

def reference_to_text(f):
    """MultiPoly.to_text on Fractions: abs, compares and str of each
    coefficient, the route before the text was read off integers."""
    if not f.terms:
        return "0"
    parts = []
    for e, c in f.sorted_terms():
        mono = "*".join(
            "%s^%d" % (v, k) if k > 1 else v
            for v, k in zip(f.vars, e) if k
        )
        ac = abs(c)
        if mono:
            body = mono if ac == 1 else "%s*%s" % (ac, mono)
        else:
            body = str(ac)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


TEXT_VARS = ("x", "y", "z", "t1", "t2", "t3", "t4", "t5")


def text_coefficient(rng):
    """±1, ±1/d, other small fractions and integers, and numerators or
    denominators of 2^64 and more."""
    sign, kind = rng.choice((1, -1)), rng.randrange(5)
    if kind == 0:
        return Fraction(sign)
    if kind == 1:
        return Fraction(sign, rng.randint(2, 12))
    if kind == 2:
        return Fraction(sign * rng.randint(2 ** 64, 2 ** 90), rng.choice((1, rng.randint(2, 2 ** 70))))
    return Fraction(sign * rng.randint(1, 60), rng.randint(1, 8))


@cache
def seeded_text_polys():
    """2000 polynomials in 0-8 variables with exponents up to 15, one in
    twenty constant-only and one in twenty zero, with their
    reference_to_text."""
    rng = random.Random(2801)
    out = []
    for i in range(2000):
        variables = TEXT_VARS[:rng.randint(0, MAX_VARS)]
        terms = {}
        if i % 20:
            for _ in range(rng.randint(1, 8)):
                e = tuple(rng.randint(0, 15) if rng.random() < 0.5 and i % 10 else 0
                          for _ in variables)
                terms[e] = text_coefficient(rng)
        f = MultiPoly(variables, terms)
        out.append((f, reference_to_text(f)))
    return out


def text_mismatches(to_text):
    return [f for f, text in seeded_text_polys() if to_text(f) != text]


def test_to_text_matches_the_fraction_route_on_seeded_polynomials():
    assert text_mismatches(MultiPoly.to_text) == []
    seen = Counter()
    for f, _ in seeded_text_polys():
        seen["%d variables" % len(f.vars)] += 1
        seen["zero"] += f.is_zero()
        seen["constant-only"] += f.degree() == 0
        first = f.sorted_terms()[0][0] if f.terms else None
        for e, c in f.terms.items():
            seen["exponent 15"] += 15 in e
            seen["unit before a monomial"] += abs(c) == 1 and any(e)
            seen["1/d"] += c.numerator in (1, -1) and c.denominator > 1
            seen["numerator >= 2^64"] += abs(c.numerator) >= 2 ** 64
            seen["denominator >= 2^64"] += c.denominator >= 2 ** 64
            seen["negative after the first"] += c < 0 and e != first
    assert len(seen) == 9 + 8 and min(seen.values()) >= 20, seen


TEXT_COEFFICIENTS = st.one_of(
    st.sampled_from([1, -1]),
    st.builds(Fraction, st.sampled_from([1, -1]), st.integers(2, 10 ** 6)),
    st.integers(2 ** 64, 2 ** 200), st.integers(-2 ** 200, -2 ** 64),
    st.fractions(), st.builds(Fraction, st.integers(-2 ** 80, 2 ** 80), st.integers(2 ** 64, 2 ** 80)))


@st.composite
def text_polys(draw):
    variables = TEXT_VARS[:draw(st.sampled_from(range(MAX_VARS + 1)))]
    top = draw(st.sampled_from((0, 15, 15, 15)))   # a quarter constant-only
    exponent = st.tuples(*[st.integers(0, top)] * len(variables))
    return MultiPoly(variables, draw(st.dictionaries(exponent, TEXT_COEFFICIENTS, max_size=8)))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(f=text_polys())
def test_to_text_matches_the_fraction_route_under_search(f):
    assert f.to_text() == reference_to_text(f)


@pytest.mark.parametrize("mutant", [
    ('parts.append(sign + " " + body)',
     'parts.append("+ " + ("-" if sign == "-" else "") + body)'),
    ('body = mono if n == 1 else "%d*%s" % (n, mono)', 'body = "%d*%s" % (n, mono)'),
], ids=["plus-minus for a negative term", "1* before a unit coefficient"])
def test_to_text_mutants_fail_the_fraction_route(mutant):
    """to_text with `+ -` printed for each negative term after the first,
    and with `1*x` printed for a unit coefficient."""
    src = textwrap.dedent(inspect.getsource(MultiPoly.to_text))
    bad = src.replace(*mutant)
    assert bad != src
    ns = dict(vars(poly))
    exec(compile(bad, "to_text_mutant", "exec"), ns)
    assert len(text_mismatches(ns["to_text"])) > 100


def test_json_roundtrip():
    rng = random.Random(6)
    for _ in range(20):
        f = rand_poly(rng, XY)
        assert polynomial_from_json(poly_to_json(f)) == f


def test_evaluate_and_derivative():
    f = p("x^2*y - 3*y + 1")
    assert f.evaluate([2, 3]) == 4 * 3 - 9 + 1
    assert f.evaluate([Fraction(1, 2), Fraction(-2, 3)]) == Fraction(-1, 6) + 2 + 1
    with pytest.raises(ValueError):
        f.evaluate([1])
    with pytest.raises(TypeError):
        f.evaluate([0.5, 1])
    assert f.derivative("x") == p("2*x*y")
    assert f.derivative("y") == p("x^2 - 3")


def reference_evaluate(f, point):
    """MultiPoly.evaluate as one Fraction product per term: the loop before
    the integer sum."""
    point = [Fraction(x) for x in point]
    total = Fraction(0)
    for e, c in f.terms.items():
        v = c
        for x, k in zip(point, e):
            if k:
                v *= x ** k
        total += v
    return total


@pytest.mark.parametrize("variables", [(), ("x",), XY, XYZ, ("a", "b", "c", "d", "e")], ids=len)
def test_evaluate_in_integers_matches_the_fraction_loop(variables):
    """Random polynomials with rational coefficients, at integer points,
    rational points, points with zero coordinates and the origin."""
    rng = random.Random(2404 + len(variables))
    n = len(variables)
    for trial in range(60):
        f = rand_poly(rng, variables, deg=rng.randint(0, 7) if n else 0, terms=rng.randint(0, 12))
        f = f * MultiPoly.const(variables, Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        points = [[rng.randint(-5, 5) for _ in range(n)],
                  [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(n)],
                  [rng.choice([0, Fraction(rng.randint(-4, 4), rng.randint(1, 5))])
                   for _ in range(n)],
                  [0] * n]
        for pt in points:
            value = f.evaluate(pt)
            assert type(value) is Fraction and value == reference_evaluate(f, pt)


def test_substitution_composes():
    f = p("x^2 + y")
    tvars = ("u", "v")
    u = MultiPoly.var(tvars, "u")
    v = MultiPoly.var(tvars, "v")
    g = f.substitute({"x": u + v, "y": u * v})
    assert g == (u + v) ** 2 + u * v


def test_div_exact():
    rng = random.Random(9)
    for _ in range(25):
        a = rand_poly(rng, XY, deg=3)
        b = rand_poly(rng, XY, deg=2)
        if b.is_zero():
            continue
        assert div_exact(a * b, b) == a
    with pytest.raises(ValueError):
        div_exact(p("x^2 + 1"), p("y"))


def div_exact_reference(p, d):
    """The earlier exact division, kept as the reference: each quotient term
    times d is subtracted from a fresh copy of the remainder."""
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return MultiPoly.zero(p.vars)
    le_d, lc_d = d.leading()
    q = {}
    r = p
    while not r.is_zero():
        le_r, lc_r = r.leading()
        if not all(a <= b for a, b in zip(le_d, le_r)):
            raise ValueError("division is not exact")
        e = tuple(a - b for a, b in zip(le_r, le_d))
        c = lc_r / lc_d
        q[e] = c
        r = r - MultiPoly(p.vars, {e: c}) * d
    return MultiPoly(p.vars, q)


@pytest.mark.parametrize("variables", [("x",), XY, XYZ], ids=len)
def test_div_exact_in_place_matches_the_reference_loop(variables):
    rng = random.Random(1919 + len(variables))
    raised = 0
    for _ in range(60):
        a = rand_sparse(rng, variables, rng.randint(1, 6), 3, 4)
        b = rand_sparse(rng, variables, rng.randint(1, 4), 2, 3)
        if b.is_zero():
            continue
        q = div_exact(a * b, b)
        assert q == a == div_exact_reference(a * b, b)
        assert all(type(c) is Fraction and c for c in q.terms.values())
        # a remainder that d does not divide: both raise, or both divide
        f = a * b + rand_sparse(rng, variables, 1, 3, 2)
        try:
            expected = div_exact_reference(f, b)
        except ValueError:
            raised += 1
            with pytest.raises(ValueError):
                div_exact(f, b)
        else:
            assert div_exact(f, b) == expected
    assert raised > 10
    assert div_exact(MultiPoly.zero(variables), a + 1) == MultiPoly.zero(variables)
    with pytest.raises(ZeroDivisionError):
        div_exact(a, MultiPoly.zero(variables))


def test_floordiv_is_the_exact_quotient():
    f, g = p("x^2 - 2/3*y"), p("x*y + 1")
    assert (f * g) // g == f
    assert f // 1 is f
    with pytest.raises(ValueError):
        p("x^2 + 1") // p("y")
    with pytest.raises(ValueError):
        (f * g + 1) // g
    with pytest.raises(ZeroDivisionError):
        f // MultiPoly.zero(XY)


def test_truth_is_nonzero():
    assert not MultiPoly.zero(XY)
    assert bool(MultiPoly.zero(())) is False
    assert bool(p("x - x")) is False
    assert p("y") and MultiPoly.const(XY, Fraction(-1, 3))


@pytest.mark.parametrize("terms", [
    {(1.5,): 1},
    {(Fraction(3, 2),): 1, (1,): 1},
    {("2",): 1},
    {(True,): 1},
    {(-1,): 1},
    {(1, 0): 1},
    {"2": 1},
], ids=repr)
def test_constructor_rejects_exponents_that_are_not_nonnegative_ints(terms):
    with pytest.raises(ValueError):
        MultiPoly(("x",), terms)


def test_constructor_keeps_distinct_exponents_apart():
    f = MultiPoly(XY, {(1, 0): 1, (0, 1): Fraction(2), (2, 0): 0, (0, 0): "-1/2"})
    assert f.terms == {(1, 0): 1, (0, 1): 2, (0, 0): Fraction(-1, 2)}
    assert all(type(c) is Fraction for c in f.terms.values())


def test_gcd_known_factors():
    a = p("x + y") ** 2 * p("x - y")
    b = p("x + y") * p("x + 2*y")
    g = poly_gcd(a, b)
    # gcd is x + y up to the leading-coefficient normalization
    assert div_exact(g, p("x + y")).degree() == 0


def euclid_gcd_reference(f, g, x):
    """Monic gcd of two polynomials in the one variable x, by Euclid over Q."""
    i = f.vars.index(x)

    def lead(r):
        d = r.degree_in(x)
        return d, next(c for e, c in r.terms.items() if e[i] == d)

    a, b = f, g
    while not b.is_zero():
        db, lb = lead(b)
        r = a
        while not r.is_zero() and r.degree_in(x) >= db:
            dr, lr = lead(r)
            e = tuple(dr - db if k == i else 0 for k in range(len(f.vars)))
            r = r - MultiPoly(f.vars, {e: lr / lb}) * b
        a, b = b, r
    return a * (1 / a.leading()[1])


@pytest.mark.parametrize("variables", [("x",), XY])
def test_gcd_in_one_active_variable_matches_euclid(variables):
    """poly_gcd sends one active variable through the same pseudo-remainder
    loop as several; Euclid over Q is the reference.  In XY the pairs use
    only y, so the other variable is present but inactive."""
    rng = random.Random(len(variables))
    y = variables[-1]
    for _ in range(40):
        a, b, c = (rand_poly(rng, (y,), deg=d) for d in (4, 4, 3))
        f, g = (MultiPoly(variables, {(0,) * (len(variables) - 1) + e: v
                                      for e, v in h.terms.items()}) for h in (a * c, b * c))
        if f.is_zero() or g.is_zero():
            continue
        assert poly_gcd(f, g) == euclid_gcd_reference(f, g, y)


def test_squarefree_part_visible_square():
    f = p("x^2*y")
    s = squarefree_part(f)
    assert s.degree() == 2
    assert div_exact(s, p("x*y")).degree() == 0


def test_squarefree_part_already_squarefree():
    f = p("x^2 + y^2")
    s = squarefree_part(f)
    assert s.degree() == f.degree()


def test_squarefree_part_factor_oracle():
    # (x+y)^3 (x-y) -> (x+y)(x-y) up to scalar
    f = p("x + y") ** 3 * p("x - y")
    s = squarefree_part(f)
    expected = p("x + y") * p("x - y")
    assert div_exact(s, expected).degree() == 0


def test_squarefree_trivariate():
    f = poly_from_text("x^2 - y*z", XYZ) ** 2 * poly_from_text("x + z", XYZ)
    s = squarefree_part(f)
    expected = poly_from_text("x^2 - y*z", XYZ) * poly_from_text("x + z", XYZ)
    assert div_exact(s, expected).degree() == 0


def test_quadratic_form_rank():
    assert quadratic_form_rank(p("x^2 + y^2")) == 2
    assert quadratic_form_rank(p("x*y")) == 2
    assert quadratic_form_rank(p("x^2 + 2*x*y + y^2")) == 1
    assert quadratic_form_rank(MultiPoly.zero(XY)) == 0
