"""Even lattices: discriminant groups, roots, orbits, overlattices."""

from fractions import Fraction
import gc
import json
import random

import pytest

from epw import checks, cli, jsonio, linalg, zlinalg
from epw.lattices import (
    DiscGroup, EvenLattice, _coords_in, reflection_matrix,
    hyperbolic_plane, rank_one, e8_minus, direct_sum,
    lambda_tilde, lambda_lattice, gamma_tilde, gamma_lattice,
    phi_tilde, phi_lattice, orth_complement,
    disc_group, divisibility_and_star, is_root, is_root_by_divisibility,
    eichler_equivalent, classify_negative_root, reflection, iota_swap,
    overlattices, sublattice_index_and_discr, disc_autos_preserving_q,
    is_isometry, induced_disc_action, NAMED_LATTICES,
    S2_STAR, S2_PRIME, S2_DPRIME, S4,
)
from epw.polymat import Pencil


def unit(n, i):
    v = [0] * n
    v[i] = 1
    return v


# -- building blocks ----------------------------------------------------------

def test_e8_minus_is_even_unimodular_negative():
    l = e8_minus()
    assert l.det() == 1
    assert l.signature() == (0, 8)
    assert all(l.gram[i][i] % 2 == 0 for i in range(8))


def test_lambda_tilde_invariants():
    lt = lambda_tilde()
    assert lt.rank == 23
    assert lt.det() == 2
    assert lt.signature() == (3, 20)
    assert lt.square(lt.vector("v1")) == 2
    assert lt.square(lt.vector("e1")) == -2
    assert lt.square(lt.vector("e2")) == -2
    assert lt.square(lt.vector("e3")) == -2
    assert lt.square(lt.vector("v3")) == 2
    assert lt.pair(lt.vector("v1"), lt.vector("e1")) == 0


def test_odd_diagonal_rejected():
    with pytest.raises(ValueError):
        EvenLattice([[1]])


def reference_signature(g):
    """(positive, negative) inertia by congruent Fraction diagonalization:
    a zero pivot is replaced by a later nonzero diagonal entry or, when
    every remaining diagonal entry vanishes, by adding a row and column
    with a nonzero off-diagonal entry."""
    n = len(g)
    a = [[Fraction(x) for x in row] for row in g]
    for k in range(n):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][i] != 0), None)
            if piv is not None:
                a[k], a[piv] = a[piv], a[k]
                for row in a:
                    row[k], row[piv] = row[piv], row[k]
            else:
                found = next(((i, j) for i in range(k, n) for j in range(i + 1, n)
                              if a[i][j] != 0), None)
                if found is None:
                    break
                i, j = found
                for t in range(n):
                    a[i][t] += a[j][t]
                for t in range(n):
                    a[t][i] += a[t][j]
                if i != k:
                    a[k], a[i] = a[i], a[k]
                    for row in a:
                        row[k], row[i] = row[i], row[k]
        if a[k][k] == 0:
            continue
        for i in range(k + 1, n):
            if a[i][k] != 0:
                f = a[i][k] / a[k][k]
                for t in range(n):
                    a[i][t] -= f * a[k][t]
                for t in range(n):
                    a[t][i] -= f * a[t][k]
    d = [a[i][i] for i in range(n)]
    return sum(x > 0 for x in d), sum(x < 0 for x in d)


def _seeded_even_gram(rng, n):
    """C^t D C for D a block sum of [2a], [0] and U = [[0, 1], [1, 0]]: even,
    often degenerate; with C a permutation the zero diagonals of U stay."""
    d = [[0] * n for _ in range(n)]
    i = 0
    while i < n:
        kind = rng.choice(["a", "0", "u"] if i + 1 < n else ["a", "0"])
        if kind == "u":
            d[i][i + 1] = d[i + 1][i] = 1
            i += 2
        else:
            d[i][i] = 2 * rng.randint(-3, 3) if kind == "a" else 0
            i += 1
    if rng.random() < 0.3:
        perm = rng.sample(range(n), n)
        c = [[int(j == perm[i]) for j in range(n)] for i in range(n)]
    else:
        c = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    dc = [[sum(d[i][k] * c[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(c[k][i] * dc[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("name", sorted(NAMED_LATTICES))
def test_signature_matches_reference_on_named_lattices(name):
    l = NAMED_LATTICES[name]()
    assert l.signature() == reference_signature(l.gram)


def test_signature_matches_reference_on_seeded_even_grams():
    rng = random.Random(13)
    kernels = zero_diagonals = 0
    for n in range(1, 10):
        for _ in range(30):
            g = _seeded_even_gram(rng, n)
            pos, neg = EvenLattice(g).signature()
            assert (pos, neg) == reference_signature(g)
            kernels += pos + neg < n
            zero_diagonals += any(g[i][i] == 0 for i in range(n))
    assert kernels >= 50 and zero_diagonals >= 50


def test_signature_reads_zero_roots_and_zero_middle_coefficients():
    # det(U - x I) = x^2 - 1 has a zero middle coefficient; the zero
    # block adds a root x = 0, so the lowest degree of p(x) is 1
    assert EvenLattice([[0, 1, 0], [1, 0, 0], [0, 0, 0]]).signature() == (1, 1)
    assert EvenLattice([[0, 0], [0, 0]]).signature() == (0, 0)
    assert EvenLattice([[-2, 0], [0, 0]]).signature() == (0, 1)
    assert EvenLattice([]).signature() == (0, 0)


# -- sparse pairing -------------------------------------------------------------

def _dense_gram_vec(g, v):
    return [sum(g[i][j] * v[j] for j in range(len(v))) for i in range(len(g))]


def _pairing_vectors(rng, n, fixed=()):
    """Vectors with zeros, negative coordinates and coordinates above 10^6."""
    out = [[0] * n] + [unit(n, i) for i in range(n)] + [list(v) for v in fixed]
    for _ in range(6):
        out.append([rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(n)])
        out.append([rng.choice([0, rng.randint(-10**9, 10**9), -1]) for _ in range(n)])
        out.append([rng.randint(10**6, 10**12) * rng.choice([-1, 1]) for _ in range(n)])
    return out


def _assert_sparse_pairing_matches_dense(l, vectors):
    g = l.gram
    for k, v in enumerate(vectors):
        gv = _dense_gram_vec(g, v)
        assert l.gram_vec(v) == gv
        assert l.square(v) == sum(x * y for x, y in zip(v, gv))
        w = vectors[(7 * k + 3) % len(vectors)]
        assert l.pair(v, w) == sum(x * y for x, y in zip(w, gv))
        assert l.pair(w, v) == l.pair(v, w)


@pytest.mark.parametrize("name", sorted(NAMED_LATTICES))
def test_sparse_pairing_matches_dense_on_named_lattices(name):
    l = NAMED_LATTICES[name]()
    fixed = list(l.named.values()) + [w for ab in l.u2_pairs for w in ab]
    _assert_sparse_pairing_matches_dense(l, _pairing_vectors(random.Random(name), l.rank, fixed))


def test_sparse_pairing_matches_dense_on_seeded_even_grams():
    rng = random.Random(29)
    zero_rows = 0
    for k in range(300):
        n = 1 + k % 9
        g = _seeded_even_gram(rng, n)
        if rng.random() < 0.4:   # zero some rows and their columns: still even
            for i in rng.sample(range(n), rng.randint(1, n)):
                for j in range(n):
                    g[i][j] = g[j][i] = 0
        zero_rows += any(not any(row) for row in g)
        l = EvenLattice(g)
        assert l._rows == [[(j, x) for j, x in enumerate(row) if x] for row in g]
        _assert_sparse_pairing_matches_dense(l, _pairing_vectors(rng, n))
    assert zero_rows >= 100


@pytest.mark.parametrize("kind", ["short-2", "short-3", "long", "zero-padded"])
def test_vector_of_wrong_length_rejected(kind):
    lam = lambda_lattice()
    e1 = lam.vector("e1")
    v = {"short-2": [1, 1], "short-3": [1, 0, 0],
         "long": e1 + [1], "zero-padded": e1 + [0]}[kind]
    for call in (lambda: lam.gram_vec(v), lambda: lam.square(v),
                 lambda: lam.pair(v, e1), lambda: lam.pair(e1, v),
                 lambda: divisibility_and_star(v, lam), lambda: is_root(v, lam),
                 lambda: classify_negative_root(v, lam), lambda: orth_complement(lam, v)):
        with pytest.raises(ValueError, match="length"):
            call()


# -- discriminant groups ---------------------------------------------------------

def test_disc_group_unimodular_trivial():
    d = disc_group(e8_minus())
    assert d.invariants == []
    assert d.order == 1


@pytest.mark.parametrize("gram", [[[0, 0], [0, 0]], [[0, 1, 0], [1, 0, 0], [0, 0, 0]]])
def test_degenerate_gram_rejected(gram):
    l = EvenLattice(gram)
    with pytest.raises(ValueError, match="degenerate"):
        disc_group(l)
    with pytest.raises(ValueError, match="degenerate"):
        overlattices(l)


def test_disc_group_lambda_tuttosudi():
    lam = lambda_lattice()
    assert lam.rank == 22
    d = disc_group(lam)
    assert d.invariants == [2, 2]
    _, e1s = divisibility_and_star(lam.vector("e1"), lam)
    _, e2s = divisibility_and_star(lam.vector("e2"), lam)
    assert e1s != d.zero() and e2s != d.zero() and e1s != e2s
    # q-values mod 2Z: -1/2, -1/2, -1
    assert d.q_value(e1s) == Fraction(3, 2)
    assert d.q_value(e2s) == Fraction(3, 2)
    assert d.q_value(d.add(e1s, e2s)) == 1


def test_disc_group_gamma_tilde():
    gt = gamma_tilde()
    assert gt.rank == 22
    assert gt.det() == -4
    d = disc_group(gt)
    assert d.invariants == [2, 2]
    vals = sorted(d.q_value(e) for e in d.elements() if e != d.zero())
    assert vals == [0, Fraction(1, 2), Fraction(3, 2)]


INTEGER_PATH_LATTICES = {
    "lambda-tilde": lambda_tilde,
    "lambda": lambda_lattice,
    "gamma-tilde": gamma_tilde,
    "gamma": gamma_lattice,
    "phi": phi_lattice,
}


@pytest.mark.parametrize("name", sorted(INTEGER_PATH_LATTICES))
def test_gen_lifts_solve_gram_system(name):
    """gen_lifts[i] = V e_i / d_i is the solution of G x = U^-1 e_i."""
    l = INTEGER_PATH_LATTICES[name]()
    d = disc_group(l)
    diag, u, _ = zlinalg.smith_normal_form(l.gram)
    uinv = linalg.inverse(linalg.fmat(u))
    expected = [linalg.solve(linalg.fmat(l.gram), [row[i] for row in uinv])
                for i in range(l.rank) if diag[i][i] > 1]
    assert d.gen_lifts == expected
    assert len(expected) == len(d.invariants) > 0


def _class_of_reference(l, w):
    """class_of by Fraction products: the residues of U G w."""
    y = linalg.mat_vec(linalg.fmat(l.gram), linalg.fvec(w))
    if any(x.denominator != 1 for x in y):
        raise ValueError("vector is not in the dual lattice")
    diag, u, _ = zlinalg.smith_normal_form(l.gram)
    uy = linalg.mat_vec(linalg.fmat(u), y)
    return tuple(int(uy[t]) % diag[t][t] for t in range(l.rank) if diag[t][t] > 1)


@pytest.mark.parametrize("name", sorted(INTEGER_PATH_LATTICES))
def test_class_of_matches_fraction_reference(name):
    l = INTEGER_PATH_LATTICES[name]()
    d = disc_group(l)
    rng = random.Random(name)
    for el in d.elements():
        w = d.lift(el)
        assert d.class_of(w) == _class_of_reference(l, w) == el
        shifted = [x + rng.randint(-3, 3) for x in w]
        assert d.class_of(shifted) == _class_of_reference(l, shifted) == el
    outside = [Fraction(1, 3)] + [0] * (l.rank - 1)
    with pytest.raises(ValueError):
        _class_of_reference(l, outside)
    with pytest.raises(ValueError, match="dual lattice"):
        d.class_of(outside)


def test_is_root_matches_reflection_integrality():
    rng = random.Random(17)
    lam = lambda_lattice()
    v3 = lam.vector("v3")
    sample = [[a + b for a, b in zip(lam.vector("e1"), lam.vector("e2"))]]
    for _ in range(4000):
        v = [0] * 22
        for _ in range(rng.randint(1, 4)):
            v[rng.randrange(22)] = rng.randint(-2, 2)
        if rng.random() < 0.5:   # shift by v3 so positive squares occur too
            v = [a + b for a, b in zip(v, v3)]
        if any(v) and lam.is_primitive(v) and lam.square(v) in (-6, -4, -2, 2, 4, 6):
            sample.append(v)
    seen = {}
    for v in sample:
        key = (lam.square(v), is_root(v, lam))
        if seen.get(key, 0) == 25:
            continue
        seen[key] = seen.get(key, 0) + 1
        integral = all(x.denominator == 1 for row in reflection_matrix(v, lam) for x in row)
        assert key[1] == integral
    # square +-2 vectors are always roots; +-4 and +-6 occur as non-roots
    assert set(seen) >= {(-2, True), (2, True), (-4, True), (-4, False), (4, False),
                         (-6, False), (6, False)}
    assert not any(ok for (sq, ok) in seen if abs(sq) == 6)


def test_coords_in_solves_many_right_sides():
    basis = [[2, 0, 1], [0, 1, -1]]
    ws = [[2, 0, 1], [4, -3, 5], [0, 0, 0]]
    assert _coords_in(basis, ws) == [[1, 0], [2, -3], [0, 0]]


def test_coords_in_rejects_non_integral_coordinates():
    with pytest.raises(ValueError, match="sublattice"):
        _coords_in([[2, 0, 0], [0, 1, 0]], [[0, 1, 0], [1, 0, 0]])


def test_coords_in_rejects_vector_outside_span():
    # (0, 0, 1) has no component along either row: a zero row with a
    # nonzero right side
    with pytest.raises(ValueError, match="span"):
        _coords_in([[1, 0, 0], [0, 1, 0]], [[0, 0, 1]])


@pytest.mark.parametrize("basis, ws, text", [
    ([[1, 0, 0], [2, 0, 0]], [[1, 0, 0]], "basis rows are linearly dependent"),
    ([[2, 0, 0], [0, 1, 0]], [[1, 0, 0]], "vector does not lie in the sublattice"),
    ([[1, 0, 0], [0, 1, 0]], [[0, 0, 1]], "vector is not in the span of the basis"),
])
def test_coords_in_error_texts(basis, ws, text):
    """Each input has exactly one fault: dependent rows, a vector of the
    span with a non-integral coordinate, a vector outside the span."""
    with pytest.raises(ValueError) as err:
        _coords_in(basis, ws)
    assert str(err.value) == text


def test_disc_order_equals_det():
    for build in (lambda_tilde, lambda_lattice, gamma_tilde, gamma_lattice):
        l = build()
        assert disc_group(l).order == abs(l.det())


# -- divisibility -----------------------------------------------------------------

def test_divisibility_examples():
    lam = lambda_lattice()
    assert divisibility_and_star(lam.vector("e1"), lam)[0] == 2
    assert divisibility_and_star(lam.vector("e2"), lam)[0] == 2
    lt = lambda_tilde()
    assert divisibility_and_star(lt.vector("e1"), lt)[0] == 1
    assert divisibility_and_star(lt.vector("e2"), lt)[0] == 2


def test_divisibility_hyperbolic_sum():
    lt = lambda_tilde()
    v = [0] * 23
    v[0] = v[1] = 1  # u + u' of square 2
    assert lt.square(v) == 2
    d, star = divisibility_and_star(v, lt)
    assert d == 1
    assert star == disc_group(lt).zero()


def test_divisibility_rejects_non_primitive():
    lt = lambda_tilde()
    with pytest.raises(ValueError):
        divisibility_and_star([2] + [0] * 22, lt)


# -- roots -------------------------------------------------------------------------

def test_square_pm2_always_root():
    lt = lambda_tilde()
    assert is_root(lt.vector("v1"), lt)
    assert is_root(lt.vector("e1"), lt)


def test_e1_plus_e2_is_minus4_root():
    lam = lambda_lattice()
    v = [a + b for a, b in zip(lam.vector("e1"), lam.vector("e2"))]
    assert lam.square(v) == -4
    assert is_root(v, lam)


def test_u_minus_2uprime_not_root():
    lt = lambda_tilde()
    v = [0] * 23
    v[0], v[1] = 1, -2
    assert lt.square(v) == -4
    assert not is_root(v, lt)


def test_root_tests_agree():
    rng = random.Random(5)
    lam = lambda_lattice()
    tested = 0
    while tested < 60:
        v = [rng.randint(-2, 2) for _ in range(22)]
        if not any(v):
            continue
        from math import gcd
        g = 0
        for x in v:
            g = gcd(g, x)
        if g != 1:
            continue
        if lam.square(v) == 0 or lam.square(v) % 2:
            continue
        assert is_root(v, lam) == is_root_by_divisibility(v, lam)
        tested += 1


# -- reflections and the swap involution ----------------------------------------------

def test_reflection_integral_involutive_stable():
    lt = lambda_tilde()
    m, stable = reflection(lt.vector("v1"), lt)
    assert stable
    n = lt.rank
    sq = [[sum(m[i][t] * m[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    assert sq == [[int(i == j) for j in range(n)] for i in range(n)]
    assert is_isometry(m, lt)
    img = [sum(lt.vector("v1")[i] * m[i][j] for i in range(n)) for j in range(n)]
    assert img == [-x for x in lt.vector("v1")]


def test_reflection_requires_square_two():
    lt = lambda_tilde()
    with pytest.raises(ValueError):
        reflection(lt.vector("e1"), lt)


def test_iota_swaps_and_is_not_stable():
    lam = lambda_lattice()
    m, stable = iota_swap(lam)
    assert not stable
    assert is_isometry(m, lam)
    n = lam.rank
    e1, e2 = lam.vector("e1"), lam.vector("e2")
    img1 = [sum(e1[i] * m[i][j] for i in range(n)) for j in range(n)]
    assert img1 == e2
    sq = [[sum(m[i][t] * m[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    assert sq == [[int(i == j) for j in range(n)] for i in range(n)]


def test_is_isometry_rejects_non_isometries():
    lt = lambda_tilde()
    n = lt.rank
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    assert is_isometry(ident, lt)
    assert is_isometry([[-x for x in row] for row in ident], lt)
    assert not is_isometry([[2 * x for x in row] for row in ident], lt)
    shear = [row[:] for row in ident]
    shear[0][1] = 1
    assert not is_isometry(shear, lt)
    # swapping two basis vectors of different squares
    sq = [lt.gram[i][i] for i in range(n)]
    i, j = next((i, j) for i in range(n) for j in range(i) if sq[i] != sq[j])
    swap = [row[:] for row in ident]
    swap[i], swap[j] = swap[j], swap[i]
    assert not is_isometry(swap, lt)


def _reference_basis_gram(l, rows):
    """The Gram of integer rows as one G b per row, then integer dots."""
    gb = [l.gram_vec(b) for b in rows]
    return [[sum(x * y for x, y in zip(a, g)) for g in gb] for a in rows]


@pytest.mark.parametrize("name", ["lambda-tilde", "lambda", "gamma-tilde", "phi-tilde"])
def test_int_gram_matches_reference_on_tower_complements(name):
    """int_gram on the complement bases int_kernel([G v]) of every named
    vector and hyperbolic-pair vector of the tower lattices."""
    l = NAMED_LATTICES[name]()
    vectors = list(l.named.values()) + [w for ab in l.u2_pairs for w in ab]
    assert len(vectors) >= 4
    for v in vectors:
        basis = zlinalg.int_kernel([l.gram_vec(v)])
        assert len(basis) == l.rank - 1
        gram = zlinalg.int_gram(l.gram, basis)
        assert gram == _reference_basis_gram(l, basis)
        assert all(type(x) is int for row in gram for x in row)


def test_passed_disc_group_is_not_rebuilt(monkeypatch):
    """Each function is passed the lattice alone and reads the group it
    holds: once built, no call builds another."""
    lam = lambda_lattice()
    lt = lambda_tilde()
    expected = (iota_swap(lam), reflection(lt.vector("v1"), lt),
                eichler_equivalent(lam.vector("e1"), lam.vector("e2"), lam),
                classify_negative_root(lam.vector("e1"), lam))

    def refuse(self, lattice):
        raise AssertionError("DiscGroup rebuilt")

    gt = gamma_tilde()
    disc_group(gt)
    ovs = [(o.index, o.lattice.gram, o.sub_in_super) for o in overlattices(gt)]

    monkeypatch.setattr(DiscGroup, "__init__", refuse)
    assert (iota_swap(lam), reflection(lt.vector("v1"), lt),
            eichler_equivalent(lam.vector("e1"), lam.vector("e2"), lam),
            classify_negative_root(lam.vector("e1"), lam)) == expected
    assert [(o.index, o.lattice.gram, o.sub_in_super) for o in overlattices(gt)] == ovs


def test_disc_group_is_held_by_its_lattice():
    l = direct_sum(rank_one(-2), hyperbolic_plane(), rank_one(4))
    assert l._disc is None
    d = disc_group(l)
    assert disc_group(l) is d and l._disc is d
    for build in NAMED_LATTICES.values():
        assert disc_group(build()) is disc_group(build())


def test_disc_auto_group_has_order_two():
    lam = lambda_lattice()
    d = disc_group(lam)
    autos = disc_autos_preserving_q(d)
    assert len(autos) == 2
    # iota realizes the nontrivial one; reflections realize the identity
    m, _ = iota_swap(lam)
    act = induced_disc_action(m, lam)
    assert any(act[k] != k for k in act)


# -- Eichler criterion ------------------------------------------------------------------

def test_eichler_two_square2_vectors_in_different_u_summands():
    lt = lambda_tilde()
    v = [0] * 23
    v[0] = v[1] = 1
    w = [0] * 23
    w[2] = w[3] = 1
    assert eichler_equivalent(v, w, lt)


def test_eichler_e1_vs_e2_in_lambda():
    lam = lambda_lattice()
    assert not eichler_equivalent(lam.vector("e1"), lam.vector("e2"), lam)


def test_eichler_reflexive():
    lam = lambda_lattice()
    assert eichler_equivalent(lam.vector("e3"), lam.vector("e3"), lam)


def test_eichler_requires_certificate():
    gam = gamma_lattice()
    assert len(gam.u2_pairs) < 2
    with pytest.raises(ValueError):
        eichler_equivalent(unit(21, 0), unit(21, 0), gam)


def test_eichler_equivalence_relation_on_sample():
    rng = random.Random(11)
    lam = lambda_lattice()
    d = disc_group(lam)
    sample = []
    while len(sample) < 12:
        v = [rng.randint(-1, 1) for _ in range(22)]
        if not any(v) or not lam.is_primitive(v):
            continue
        sample.append(v)
    rel = {}
    for i, v in enumerate(sample):
        for j, w in enumerate(sample):
            rel[i, j] = eichler_equivalent(v, w, lam)
    for i in range(len(sample)):
        assert rel[i, i]
        for j in range(len(sample)):
            assert rel[i, j] == rel[j, i]
            for k in range(len(sample)):
                if rel[i, j] and rel[j, k]:
                    assert rel[i, k]


# -- the four orbit tags --------------------------------------------------------------------

def test_classify_named_roots():
    lam = lambda_lattice()
    assert classify_negative_root(lam.vector("e3"), lam) == S2_STAR
    assert classify_negative_root(lam.vector("e1"), lam) == S2_PRIME
    assert classify_negative_root(lam.vector("e2"), lam) == S2_DPRIME
    v = [a + b for a, b in zip(lam.vector("e1"), lam.vector("e2"))]
    assert classify_negative_root(v, lam) == S4


def test_classify_sampled_roots_exhaustive():
    """Every sampled negative root of square -2 or -4 lands in exactly one
    of the four orbits."""
    rng = random.Random(71)
    lam = lambda_lattice()
    seen = set()
    found = 0
    while found < 120:
        v = [0] * 22
        for _ in range(rng.randint(1, 4)):
            v[rng.randrange(22)] = rng.randint(-2, 2)
        if not any(v) or not lam.is_primitive(v):
            continue
        sq = lam.square(v)
        if sq not in (-2, -4):
            continue
        if not is_root(v, lam):
            continue
        tag = classify_negative_root(v, lam)
        seen.add(tag)
        found += 1
    assert seen >= {S2_STAR, S2_DPRIME}
    # make sure all four tags actually occur: add the named representatives
    for v, tag in [
        (lam.vector("e1"), S2_PRIME),
        (lam.vector("e2"), S2_DPRIME),
        (lam.vector("e3"), S2_STAR),
        ([a + b for a, b in zip(lam.vector("e1"), lam.vector("e2"))], S4),
    ]:
        assert classify_negative_root(v, lam) == tag
        seen.add(tag)
    assert seen == {S2_STAR, S2_PRIME, S2_DPRIME, S4}


def test_classify_rejects_positive_root():
    lam = lambda_lattice()
    v3 = lam.vector("v3")
    with pytest.raises(ValueError):
        classify_negative_root(v3, lam)


# -- overlattices ---------------------------------------------------------------------------

def test_gamma_tilde_unique_overlattice_is_k3():
    gt = gamma_tilde()
    ovs = overlattices(gt)
    assert len(ovs) == 1
    ov = ovs[0]
    assert ov.index == 2
    k3 = ov.lattice
    assert k3.rank == 22
    assert abs(k3.det()) == 1
    assert k3.signature() == (3, 19)
    assert all(k3.gram[i][i] % 2 == 0 for i in range(22))


@pytest.mark.parametrize("name", ["gamma-tilde", "u(2)", "a1(-1)^2+a1^2"])
def test_overlattices_share_the_signature_of_the_lattice(tmp_path, name):
    """An overlattice of finite index spans the rational space of L, so its
    signature is that of L: the one `overlattices` prints for each."""
    if name == "gamma-tilde":
        l, argv = gamma_tilde(), ["--lattice", "gamma-tilde"]
    else:
        l = (EvenLattice([[0, 2], [2, 0]]) if name == "u(2)" else
             direct_sum(rank_one(-2), rank_one(-2), rank_one(2), rank_one(2)))
        path = tmp_path / "lattice.json"
        path.write_text(jsonio.dump_value("even_lattice", l))
        argv = ["--lattice-json", str(path)]
    ovs = overlattices(l)
    assert ovs and all(o.lattice.signature() == l.signature() for o in ovs)
    code, out = cli.run(["overlattices", "--format", "json"] + argv)
    assert code == 0
    assert [tuple(o["signature"]) for o in json.loads(out)["overlattices"]] == \
        [l.signature()] * len(ovs)


def test_overlattice_wrong_denominator_fails_integrality(monkeypatch):
    """Lifting the isotropic class with twice its denominator gives a
    non-integral Gram, which overlattices must refuse."""
    gt = gamma_tilde()
    d = disc_group(gt)
    isotropic = {el for el in d.elements() if d.is_isotropic(el)}
    true_lift = DiscGroup._lift_num

    def wrong_den(self, el):
        num, den = true_lift(self, el)
        return num, 2 * den

    monkeypatch.setattr(DiscGroup, "is_isotropic", lambda self, el: el in isotropic)
    monkeypatch.setattr(DiscGroup, "_lift_num", wrong_den)
    with pytest.raises(AssertionError, match="not integral"):
        overlattices(gt)


def test_unimodular_has_no_overlattices():
    assert overlattices(e8_minus()) == []


def test_minus2_minus2_no_isotropic():
    l = direct_sum(rank_one(-2), rank_one(-2))
    d = disc_group(l)
    vals = sorted(d.q_value(e) for e in d.elements() if e != d.zero())
    assert vals == [1, Fraction(3, 2), Fraction(3, 2)]
    assert overlattices(l) == []


def test_sublattice_index_and_discr():
    gt = gamma_tilde()
    ov = overlattices(gt)[0]
    index, ok = sublattice_index_and_discr(ov.lattice, ov.sub_in_super)
    assert (index, ok) == (2, True)
    # L inside L has index 1
    n = gt.rank
    ident = [unit(n, i) for i in range(n)]
    assert sublattice_index_and_discr(gt, ident)[0] == 1
    # 2L inside L has index 2^n (small example)
    u = hyperbolic_plane()
    assert sublattice_index_and_discr(u, [[2, 0], [0, 2]])[0] == 4


# -- orthogonal complements -------------------------------------------------------------------

def test_orth_complement_of_v1_is_lambda():
    lt = lambda_tilde()
    lam = orth_complement(lt, lt.vector("v1"))
    assert lam.rank == 22
    assert abs(lam.det()) == 4
    assert lam.signature() == (2, 20)
    d = disc_group(lam)
    assert d.invariants == [2, 2]


def test_orth_complement_of_e3_gives_gamma():
    lam = lambda_lattice()
    gam = orth_complement(lam, lam.vector("e3"))
    assert gam.rank == 21
    assert abs(gam.det()) == 8
    assert gam.signature() == (2, 19)


def test_orth_complement_rank1_summand():
    l = direct_sum(rank_one(-2), hyperbolic_plane())
    c = orth_complement(l, unit(3, 0))
    assert c.rank == 2
    assert c.det() == -1  # the hyperbolic plane


# -- the Phi tower ------------------------------------------------------------------------------

def test_phi_tilde_is_k3_lattice():
    pt = phi_tilde()
    assert pt.rank == 22
    assert abs(pt.det()) == 1
    assert pt.signature() == (3, 19)
    assert pt.square(pt.vector("v1")) == 2


def test_phi_lattice_invariants():
    ph = phi_lattice()
    assert ph.rank == 21
    assert abs(ph.det()) == 2
    assert ph.signature() == (2, 19)
    d = disc_group(ph)
    assert d.invariants == [2]


# -- the shared named tower -------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(NAMED_LATTICES))
def test_named_lattice_is_built_once(name):
    assert NAMED_LATTICES[name]() is NAMED_LATTICES[name]()


def _run_tower_users():
    """Every verb and ledger that reads the shared tower."""
    for name in sorted(NAMED_LATTICES):
        polarized = {"e1", "e2"} <= set(NAMED_LATTICES[name]().named)
        assert cli.run(["disc-group", "--lattice", name])[0] == 0
        assert cli.run(["classify-root", "--lattice", name, "--vector", "e1"])[0] \
            == (0 if polarized else 2)
        assert cli.run(["overlattices", "--lattice", name])[0] == 0
    assert cli.run(["hilb-check"])[0] == 0
    assert all(r.ok for r in checks.check_lattice_ledger())
    assert all(r.ok for r in checks.check_hilbert_ledger())


def _assert_tower_equals_fresh_builds():
    """Each shared lattice, its sparse Gram rows, its held discriminant
    group and its held signature (where one is held) equal those of a
    fresh build."""
    signatures = 0
    for name, ctor in NAMED_LATTICES.items():
        shared, fresh = ctor(), ctor.__wrapped__()
        assert (shared.gram, shared.named, shared.u2_pairs) \
            == (fresh.gram, fresh.named, fresh.u2_pairs), name
        assert shared._rows == [[(j, x) for j, x in enumerate(row) if x]
                                for row in shared.gram], name
        held, built = shared._disc, DiscGroup(fresh)
        assert held is not None, name
        assert (held.invariants, held.gen_lifts, held._urows, held._vcols) \
            == (built.invariants, built.gen_lifts, built._urows, built._vcols), name
        if shared._sig is not None:
            assert fresh._sig is None and shared._sig == fresh.signature(), name
            signatures += 1
    # `overlattices` reads the signature of each lattice that has one
    assert signatures >= 2


def test_no_verb_or_ledger_mutates_the_shared_tower():
    _run_tower_users()
    _assert_tower_equals_fresh_builds()


@pytest.fixture
def rebuilt_tower():
    """Drop the cached tower afterwards, so a mutated lattice is not shared
    with later tests."""
    yield
    for ctor in NAMED_LATTICES.values():
        ctor.cache_clear()


def test_tower_guard_catches_a_verb_that_mutates_lambda(monkeypatch, rebuilt_tower):
    classify = cli.VERBS["classify-root"]

    def mutant(args):
        if args.lattice == "lambda":
            e1 = lambda_lattice().named["e1"]
            e1[:] = [-x for x in e1]
        return classify(args)

    monkeypatch.setitem(cli.VERBS, "classify-root", mutant)
    _run_tower_users()
    with pytest.raises(AssertionError, match="lambda"):
        _assert_tower_equals_fresh_builds()


def test_tower_guard_catches_a_verb_that_mutates_the_held_group(monkeypatch, rebuilt_tower):
    classify = cli.VERBS["classify-root"]

    def mutant(args):
        if args.lattice == "lambda":
            # the invariants are 2, 2 and a negated entry keeps every residue
            # mod 2, so no ledger line changes and only the guard can see it
            row = disc_group(lambda_lattice())._urows[0]
            k = next(k for k, x in enumerate(row) if x)
            row[k] = -row[k]
        return classify(args)

    monkeypatch.setitem(cli.VERBS, "classify-root", mutant)
    _run_tower_users()
    with pytest.raises(AssertionError, match="lambda"):
        _assert_tower_equals_fresh_builds()


def test_tower_guard_catches_a_verb_that_mutates_a_held_signature(monkeypatch, rebuilt_tower):
    overlattices_verb = cli.VERBS["overlattices"]

    def mutant(args):
        code = overlattices_verb(args)
        if args.lattice == "gamma":
            # no verb or ledger line reads gamma's signature afterwards,
            # so only the guard can see it
            l = gamma_lattice()
            l._sig = l._sig[::-1]
        return code

    monkeypatch.setitem(cli.VERBS, "overlattices", mutant)
    _run_tower_users()
    with pytest.raises(AssertionError, match="gamma"):
        _assert_tower_equals_fresh_builds()


def test_signature_is_held_by_its_lattice(monkeypatch):
    l = direct_sum(rank_one(-2), hyperbolic_plane(), rank_one(4))
    assert l._sig is None
    sig = l.signature()
    assert sig == (2, 2) and l._sig == sig

    def refuse(self, variables, degree=None):
        raise AssertionError("signature recomputed")

    monkeypatch.setattr(Pencil, "det_poly", refuse)
    assert l.signature() == sig


def test_lattice_json_group_dies_with_its_lattice(tmp_path, monkeypatch):
    """A --lattice-json lattice is read per call; its held group must not
    outlive the call, so no module global may reach it."""
    path = tmp_path / "lambda.json"
    path.write_text(jsonio.dump_value("even_lattice", lambda_lattice()))
    built = []
    init = DiscGroup.__init__

    def record(self, lattice):
        init(self, lattice)
        built.append(id(self))

    def alive():
        gc.collect()
        return [o for o in gc.get_objects() if isinstance(o, DiscGroup) and id(o) in built]

    monkeypatch.setattr(DiscGroup, "__init__", record)
    code, out = cli.run(["classify-root", "--lattice-json", str(path), "--vector", "e1"])
    assert (code, out.splitlines()[-1]) == (0, "tag: S2_PRIME")
    assert len(built) == 1 and alive() == []
    # the same probe sees a group whose lattice is still referenced
    held = jsonio.lattice_from_json(jsonio.lattice_to_json(lambda_lattice()))
    disc_group(held)
    assert len(built) == 2 and len(alive()) == 1
    del held
    assert alive() == []


def test_sampled_roots_line_fails_on_a_classifier_wrong_off_the_named_roots(monkeypatch):
    """The mutant swaps S2' and S2'' and maps S2* to S2' on every root but
    the named representatives e1, e2, e3 and e1 + e2, which root-orbit-tags
    already holds to their tags: only the reference for the sampled roots
    can see it."""
    lam = lambda_lattice()
    e1, e2, e3 = lam.vector("e1"), lam.vector("e2"), lam.vector("e3")
    named = [e1, e2, e3, [a + b for a, b in zip(e1, e2)]]
    swap = {S2_PRIME: S2_DPRIME, S2_DPRIME: S2_PRIME, S2_STAR: S2_PRIME, S4: S4}
    classify = checks.classify_negative_root

    def mutant(v, lam):
        tag = classify(v, lam)
        return tag if list(v) in named else swap[tag]

    assert all(r.ok for r in checks.check_lattice_ledger(root_samples=60))
    monkeypatch.setattr(checks, "classify_negative_root", mutant)
    results = checks.check_lattice_ledger(root_samples=60)
    assert [r.name for r in results if not r.ok] == ["sampled-roots-tagged"]
