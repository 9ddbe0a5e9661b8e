"""Beauville-Bogomolov arithmetic, Pell classes, case ledgers."""

import random

import pytest

from epw.hilbert_square import (
    HilbClass, NSRank2, bb_form, bb_square, fujiki_quartic,
    conic_class_arithmetic, delta_case_check, degree2_case_check,
    PELL_BOX, pell_square_two_classes, pell_brute_force, trace_pairing,
    alpha_class, is_effective_double, obstruction_pairing, psi,
)
from epw.lattices import lambda_lattice, lambda_tilde, classify_negative_root, S2_STAR
from epw.zroot2 import QuadInt


def rand_class(rng):
    return HilbClass([rng.randint(-3, 3) for _ in range(22)], rng.randint(-3, 3))


# -- the form and the Fujiki identity -------------------------------------------

def test_xi_square():
    assert bb_square(HilbClass.xi()) == -2


def test_fujiki_on_square_two_class():
    lt = lambda_tilde()
    h = HilbClass(lt.vector("v1")[:22], 0)
    assert bb_square(h) == 2
    assert fujiki_quartic(h, h, h, h) == 12


def test_fujiki_mixed_vanishing():
    # (zeta, h) = 0 and q(h) = 2 force the h^3 zeta integral to vanish
    lt = lambda_tilde()
    h = HilbClass(lt.vector("v1")[:22], 0)
    zeta = HilbClass(lt.vector("e3")[:22], 0)
    assert bb_form(h, zeta) == 0
    assert fujiki_quartic(zeta, h, h, h) == 0


def test_fujiki_identity_random_sweep():
    rng = random.Random(42)
    for _ in range(100):
        a = rand_class(rng)
        assert fujiki_quartic(a, a, a, a) == 3 * bb_square(a) ** 2


# -- conic class arithmetic -------------------------------------------------------

def test_conic_class_arithmetic_standard():
    rep = conic_class_arithmetic()
    assert rep.q_zeta == -2
    assert rep.ok


def test_conic_class_line_can_fail(monkeypatch):
    from epw import checks, hilbert_square

    assert checks.check_algebra_core().ok
    monkeypatch.setattr(hilbert_square, "fujiki_quartic", lambda a, b, c, d: 0)
    r = checks.check_algebra_core()
    assert not r.ok and r.detail == "conic-class"


def test_conic_class_cross_module():
    """A concrete class realizing (q = -2, div 1, perp to h): the u - u'
    vector of a hyperbolic summand orthogonal to the polarization; its
    orbit tag in the polarized lattice is the star one."""
    lam = lambda_lattice()
    assert classify_negative_root(lam.vector("e3"), lam) == S2_STAR


# -- case ledgers --------------------------------------------------------------------

def test_delta_case():
    rep = delta_case_check()
    assert rep.ok, rep.lines()


def test_delta_case_small_vector_clause_can_fail(monkeypatch):
    import epw.hilbert_square as hs
    monkeypatch.setattr(hs.NSRank2, "q", lambda self, v: -2)
    rep = delta_case_check()
    assert dict(rep.checks)["no -2/-4 vector in the span"] is False


def test_degree2_case():
    rep = degree2_case_check()
    assert rep.ok, rep.lines()


# -- Pell classes ---------------------------------------------------------------------

def test_pell_small_values():
    classes = dict((n, (x, y)) for n, x, y in pell_square_two_classes(2))
    assert classes[0] == (1, -1)    # the polarization mu - xi
    assert classes[1] == (1, 1)
    assert classes[-1] == (5, -7)
    assert classes[-2] == (29, -41)
    assert classes[2] == (5, 7)


def test_pell_classes_have_square_two_and_positive_h_pairing():
    ns = NSRank2(4)
    for n, x, y in pell_square_two_classes(10):
        assert ns.q((x, y)) == 2
        assert ns.pair((x, y), (1, -1)) > 0


def test_pell_completeness_against_brute_force():
    brute = set(pell_brute_force())
    xmax, ymax = PELL_BOX
    formula = set()
    for n, x, y in pell_square_two_classes(10):
        if abs(x) <= xmax and abs(y) <= ymax:
            formula.add((x, y))
            formula.add((-x, -y))
    brute_all = brute | {(-x, -y) for (x, y) in brute}
    assert formula == brute_all


# -- the trace form ----------------------------------------------------------------------

def test_trace_pairing_mu_and_xi():
    assert trace_pairing((1, 0), (1, 0)) == 4
    assert trace_pairing((0, 1), (0, 1)) == -2
    assert trace_pairing((1, 0), (0, 1)) == 0


def test_trace_pairing_random_identity():
    rng = random.Random(7)
    ns = NSRank2(4)
    for _ in range(100):
        v = (rng.randint(-20, 20), rng.randint(-20, 20))
        w = (rng.randint(-20, 20), rng.randint(-20, 20))
        assert trace_pairing(v, w) == ns.pair(v, w)


# -- nodal classes and effectivity ----------------------------------------------------------

def test_alpha_small_values():
    assert alpha_class(0) == (0, -1)      # -xi
    assert alpha_class(1) == (2, -3)
    assert alpha_class(-1) == (-2, -3)


def test_alpha_square_minus_two_and_isometry_orbit():
    ns = NSRank2(4)
    g = QuadInt(3, -2)
    for n in range(-20, 21):
        v = alpha_class(n)
        assert ns.q(v) == -2
        # alpha_n = g^n(-xi) in the ring identification
        assert psi(v) == (g ** n) * QuadInt(-1, 0)


def test_effectivity_sign_flips_at_zero():
    for n in range(-8, 9):
        expected = 1 if n > 0 else -1
        assert is_effective_double(n) == expected


def test_effectivity_pairings():
    ns = NSRank2(4)
    assert ns.pair(alpha_class(1), (1, -1)) == 2
    assert ns.pair(alpha_class(-1), (1, -1)) == -14


# -- obstruction pairings ----------------------------------------------------------------------

def test_obstruction_n_positive():
    h1, beta, val = obstruction_pairing(1)
    assert h1 == (1, 1)          # mu + xi
    assert beta == (0, 2)        # 2 xi
    assert val == -4


def test_obstruction_n_negative():
    _, _, val = obstruction_pairing(-1)
    assert val == -4


def test_obstruction_sweep():
    for n in list(range(-6, 0)) + list(range(1, 7)):
        _, beta, val = obstruction_pairing(n)
        assert val == -4


def test_obstruction_rejects_zero():
    with pytest.raises(ValueError):
        obstruction_pairing(0)


def test_multiplication_by_unit_is_isometry():
    ns = NSRank2(4)
    rng = random.Random(9)
    g = QuadInt(3, -2)
    for _ in range(50):
        v = (rng.randint(-9, 9), rng.randint(-9, 9))
        z = psi(v) * g
        w = (z.x, z.y)
        assert ns.q(w) == ns.q(v)


def test_embeddings_match_ns_gram():
    rng = random.Random(3)
    for d_sq in (2, 4, 10):
        ns = NSRank2(d_sq)
        for _ in range(20):
            v = (rng.randint(-4, 4), rng.randint(-4, 4))
            w = (rng.randint(-4, 4), rng.randint(-4, 4))
            assert bb_form(ns.embed(v), ns.embed(w)) == ns.pair(v, w)
