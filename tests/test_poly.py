"""Polynomial core: arithmetic, grading, gcd/squarefree, serialization."""

from fractions import Fraction
import random

import pytest

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


def test_canonical_text_roundtrip():
    rng = random.Random(5)
    for _ in range(30):
        f = rand_poly(rng, XYZ)
        assert poly_from_text(f.to_text(), XYZ) == f
    assert MultiPoly.zero(XY).to_text() == "0"
    f = p("3/4*x^2*y - y + 5")
    assert f.to_text() == "3/4*x^2*y - y + 5"


def test_json_roundtrip():
    rng = random.Random(6)
    for _ in range(20):
        f = rand_poly(rng, XY)
        assert polynomial_from_json(poly_to_json(f)) == f


def test_evaluate_and_derivative():
    f = p("x^2*y - 3*y + 1")
    assert f.evaluate([2, 3]) == 4 * 3 - 9 + 1
    assert f.derivative("x") == p("2*x*y")
    assert f.derivative("y") == p("x^2 - 3")


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
