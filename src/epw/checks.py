"""Named exact checks: one function per verifiable claim.

Each check returns a CheckResult; the CLI report command and the
acceptance test suite both drive these, so a claim is verified the same
way everywhere.  All randomness is seeded and echoed.

The four quadratic-form suites share one seeded case loop (_cases), and
quadratic_form_suites(seed, cases) runs them on seeds seed .. seed + 3
for `report`, `varquad-check` and the acceptance tests alike.
"""

from fractions import Fraction
from math import gcd
import random
import time

from . import linalg
from .lattices import (
    EvenLattice, classify_negative_root, disc_autos_preserving_q, disc_group,
    divisibility_and_star, eichler_equivalent, gamma_tilde, induced_disc_action,
    iota_swap, is_root, lambda_lattice, lambda_tilde, orth_complement,
    overlattices, reflection, sublattice_index_and_discr,
    S2_STAR, S2_PRIME, S2_DPRIME, S4,
)
from .local_model import (
    Chart, chart_pencil, double_cover_ideal, local_sextic, make_chart, rank_f2,
    schur_complement, schur_identity_check, taylor_order_check,
)
from .poly import homogeneous_part, quadratic_form_rank
from .varquad import (
    PencilFamily, QuadSpace, ann_of_span, cork_restrict, degenerate_cone_check,
    dual_form, phi2_rank, vanishing_kernel_check,
)
from .wedge import (
    PAIR5_INDEX, Subspace3, degeneracy_dim, lagrangian_containing,
    lagrangian_from_graph_basis, random_graph_lagrangian, random_symmetric,
    random_vector, sigma_level, standard_chart_basis, symmetric_with_kernel,
    _unit,
)
from . import hilbert_square as hs


class CheckResult:
    """A named verdict with its ledger detail; stats holds measurements
    that stay out of the ledger line (timings, for instance)."""

    __slots__ = ("name", "ok", "detail", "stats")

    def __init__(self, name, ok, detail="", stats=None):
        self.name = name
        self.ok = bool(ok)
        self.detail = detail
        self.stats = stats or {}

    def line(self):
        base = "%s %s" % ("PASS" if self.ok else "FAIL", self.name)
        return base + (" " + self.detail if self.detail else "")


W123 = Subspace3([_unit(0), _unit(1), _unit(2)])


# ---------------------------------------------------------------------
# Degeneracy sextics
# ---------------------------------------------------------------------


def off_grid_points(seed):
    """Two seeded chart points with non-integer coordinates (odd over
    even), so they lie off every interpolation grid."""
    rng = random.Random("off-grid:%d" % seed)
    return [[Fraction(2 * rng.randint(-5, 4) + 1, 2 * rng.randint(1, 4)) for _ in range(5)]
            for _ in range(2)]


def sextic_matches_pencil(chart, f, points):
    """f equals det(q_A + q_v) at each point, the determinant taken by
    int_det of the integer-scaled chart pencil.

    An interpolant at too low a degree bound still fits the grid values,
    but not these points, so the certified bound stays falsifiable.
    """
    pencil = chart_pencil(chart)
    return all(f.evaluate(pt) == pencil.det(pt) for pt in points)


def check_epw_degree_bound(seed=1, count=20):
    """Every sampled graph Lagrangian has deg det(q_A + q_v) <= 6, with
    equality somewhere in the sample, and each interpolated determinant
    matches the pencil at two seeded off-grid points.

    stats: worst_s, the slowest local_sextic, and total_s, the wall time
    of the whole check.
    """
    start = time.perf_counter()
    rng = random.Random(seed)
    points = off_grid_points(seed)
    degrees = []
    matches = True
    worst = 0.0
    for _ in range(count):
        frame, _ = random_graph_lagrangian(rng, corank=rng.choice([0, 0, 0, 1]))
        chart = Chart(frame, _unit(0), standard_chart_basis()[1])
        t0 = time.perf_counter()
        ls = local_sextic(chart)
        worst = max(worst, time.perf_counter() - t0)
        degrees.append(ls.degree())
        matches = matches and sextic_matches_pencil(chart, ls.f, points)
    ok = matches and all(d <= 6 for d in degrees) and any(d == 6 for d in degrees)
    detail = "instances=%d max-degree=%d degree-6-count=%d" % (
        count, max(degrees), sum(1 for d in degrees if d == 6))
    stats = {"worst_s": worst, "total_s": time.perf_counter() - start}
    return CheckResult("epw-degree-bound", ok, detail, stats)


def _corank_instance(rng, k):
    """Graph Lagrangian with prescribed center corank and, for k = 1, a
    certified non-decomposable kernel direction."""
    from itertools import combinations
    from .wedge import PAIRS5

    while True:
        frame, g = random_graph_lagrangian(rng, corank=k)
        if k != 1:
            return frame
        kern = linalg.nullspace(g)[0]
        support = [PAIRS5[i] for i in range(10) if kern[i] != 0]
        if any(len(set(p) | set(q)) == 4 for p, q in combinations(support, 2)):
            return frame  # alpha ^ alpha has a chance to be nonzero; verify
        # fall through and resample


def check_taylor_orders(seed=1):
    """Vanishing orders at the chart center: f_0..f_{k-1} = 0, f_k != 0 for
    k = 0..3 with no plane through the center; f_0 = f_1 = 0 on a plane.
    The sampled corank k must also be the chart's corank and the
    degeneracy dimension of the wedge layer at the center."""
    rng = random.Random(seed)
    lines = []
    ok = True
    for k in range(4):
        frame = _corank_instance(rng, k)
        chart = Chart(frame, _unit(0), standard_chart_basis()[1])
        rep = taylor_order_check(chart)
        ok = ok and rep.ok and rep.k == k == degeneracy_dim(frame, _unit(0))
        lines.append("k=%d:%s" % (k, "ok" if rep.ok else "FAIL"))
    frame = lagrangian_containing(W123, level=1, seed=seed + 17)
    chart = make_chart(frame, _unit(0))
    rep = taylor_order_check(chart, known_theta=[W123])
    ok = ok and rep.theta_case and rep.ok
    lines.append("plane:%s" % ("ok" if rep.ok else "FAIL"))
    return CheckResult("taylor-orders", ok, " ".join(lines))


def check_rank_formula(seed=1):
    """rk f_2 = 4 - level on engineered instances of level 1, 2, 3."""
    ranks = []
    for level in (1, 2, 3):
        frame = lagrangian_containing(W123, level=level, seed=seed + level)
        ranks.append(rank_f2(make_chart(frame, _unit(0)), W123))
    ok = ranks == [3, 2, 1]
    return CheckResult("rank-f2-formula", ok, "ranks=%s" % (ranks,))


def check_schur_identity(seed=1):
    """det(q_A + q_v) D^(k-1) = det(M_hat) exactly, for k = 1 and 2."""
    rng = random.Random(seed)
    oks = {}
    for k in (1, 2):
        frame, _ = random_graph_lagrangian(rng, corank=k)
        chart = Chart(frame, _unit(0), standard_chart_basis()[1])
        oks[k] = schur_identity_check(chart, schur_complement(chart))
    return CheckResult("schur-identity", all(oks.values()),
                       " ".join("k=%d:%s" % item for item in oks.items()))


def formstan_instance():
    """Kernel <w1^w2, w1^u1 + u2^u3> at the center of a plane instance,
    with W = <v0, w1, w2>: (chart, k_basis), the one k = 2 normal-form
    instance of the ledger and the tests.

    Chart basis order: c1 = w1, c2 = w2, c3 = u1, c4 = u2, c5 = u3.
    """
    rng = random.Random(70)
    v0, c = standard_chart_basis()
    k1 = [Fraction(0)] * 10
    k1[PAIR5_INDEX[(0, 1)]] = Fraction(1)            # w1 ^ w2
    k2 = [Fraction(0)] * 10
    k2[PAIR5_INDEX[(0, 2)]] = Fraction(1)            # w1 ^ u1
    k2[PAIR5_INDEX[(3, 4)]] = Fraction(1)            # u2 ^ u3
    for _ in range(80):
        g = symmetric_with_kernel(rng, 10, [k1, k2])
        frame = lagrangian_from_graph_basis(v0, c, g)
        if degeneracy_dim(frame, _unit(0)) != 2:
            continue
        if sigma_level(frame, W123) != (True, 1):
            continue
        return Chart(frame, v0, c), [k1, k2]
    raise RuntimeError("no normal-form instance found")


def check_double_cover_rank():
    """The k = 2 fiber equation has quadratic part of rank exactly 3."""
    chart, kbasis = formstan_instance()
    dc = double_cover_ideal(chart, k_basis=kbasis)
    fiber = dc.generators[4]            # D xi2^2 - cof(M_hat)_22
    r = quadratic_form_rank(homogeneous_part(fiber, 2))
    return CheckResult("double-cover-quadratic-rank", r == 3, "rank=%d" % r)


# ---------------------------------------------------------------------
# Variable quadratic forms
# ---------------------------------------------------------------------


def _cases(name, seed, cases, case):
    """The seeded case loop of the quadratic-form suites.

    case(rng) draws one instance and returns None to draw again (a
    degenerate draw, not counted), or (ok, note) once it is checked.  The
    first failing case ends the loop with its index and note.
    """
    rng = random.Random(seed)
    done = 0
    while done < cases:
        verdict = case(rng)
        if verdict is None:
            continue
        ok, note = verdict
        if not ok:
            return CheckResult(name, False, " ".join(filter(None, ["case=%d" % done, note])))
        done += 1
    return CheckResult(name, True, "cases=%d" % cases)


def check_corank_duality(seed, cases):
    """cork(q|S) = cork(q^dual|Ann S) for nondegenerate q on Q^d.  Every
    other case has cork(q|S) = c >= 1 in a random basis: the top-left
    m x m block of G0 is symmetric_with_kernel's (c <= d - m), G =
    P G0 P^t and S is the first m rows of P^-1."""
    checked = 0

    def case(rng):
        nonlocal checked
        d = rng.randint(2, 8)
        if checked % 2:
            m = rng.randint(1, d - 1)
            kern = [random_vector(rng, m) for _ in range(rng.randint(1, min(m, d - m)))]
            g = random_symmetric(rng, d)
            for i, row in enumerate(symmetric_with_kernel(rng, m, kern)):
                g[i][:m] = row
            p = [random_vector(rng, d) for _ in range(d)]
            if linalg.rank(kern) != len(kern) or linalg.rank(g) != d or linalg.rank(p) != d:
                return None
            g, s = linalg.restrict_gram(g, p), linalg.inverse(p)[:m]
        else:
            g = random_symmetric(rng, d)
            if linalg.rank(g) != d:
                return None
            s = linalg.row_basis([random_vector(rng, d)
                                  for _ in range(rng.randint(1, d - 1))])
            if not s:
                return None
        q = QuadSpace(g)
        checked += 1
        return cork_restrict(q, s) == dual_form(q).corank_on(ann_of_span(s, d)), ""

    return _cases("corank-duality", seed, cases, case)


def check_degenerate_cone(seed, cases):
    def case(rng):
        d = rng.randint(2, 8)
        k = rng.randint(0, min(3, d - 1))
        if k:
            kern = [random_vector(rng, d) for _ in range(k)]
            if linalg.rank(kern) != k:
                return None
            base = symmetric_with_kernel(rng, d, kern)
        else:
            base = random_symmetric(rng, d, invertible=True)
        m = rng.randint(1, 3)
        fam = PencilFamily(QuadSpace(base),
                           [random_symmetric(rng, d) for _ in range(m)])
        return degenerate_cone_check(fam)[0], ""

    return _cases("kernel-block-expansion", seed, cases, case)


def check_vanishing_kernel(seed, cases):
    def case(rng):
        d = rng.randint(3, 8)
        k = rng.randint(1, min(2, d - 2))
        s = random_symmetric(rng, d - k)
        if linalg.rank(s) != d - k:
            return None
        base = [[Fraction(0)] * d for _ in range(d)]
        for i in range(d - k):
            for jj in range(d - k):
                base[i][jj] = s[i][jj]
        coeffs = []
        for _ in range(rng.randint(1, 3)):
            b = random_symmetric(rng, d)
            for i in range(d - k, d):
                for jj in range(d - k, d):
                    b[i][jj] = Fraction(0)
            coeffs.append(b)
        return vanishing_kernel_check(PencilFamily(QuadSpace(base), coeffs))[0], ""

    return _cases("vanishing-kernel-expansion", seed, cases, case)


def check_phi2_rank(seed, cases):
    def case(rng):
        d = rng.randint(2, 8)
        e = random_vector(rng, d, nonzero=True)
        base = symmetric_with_kernel(rng, d, [e])
        coeffs = []
        for _ in range(rng.randint(1, 3)):
            b = random_symmetric(rng, d)
            val = linalg.restrict_gram(b, [e])[0][0]
            if val != 0:
                i = next(t for t in range(d) if e[t] != 0)
                b[i][i] -= val / (e[i] * e[i])
            coeffs.append(b)
        lhs, rhs, equal = phi2_rank(PencilFamily(QuadSpace(base), coeffs))
        return equal, "lhs=%d rhs=%d" % (lhs, rhs)

    return _cases("phi2-rank-formula", seed, cases, case)


def quadratic_form_suites(seed, cases):
    """The four quadratic-form suites on seeds seed .. seed + 3."""
    return [
        check_corank_duality(seed, cases),
        check_degenerate_cone(seed + 1, cases),
        check_vanishing_kernel(seed + 2, cases),
        check_phi2_rank(seed + 3, cases),
    ]


# ---------------------------------------------------------------------
# Lattice ledger
# ---------------------------------------------------------------------


def _reference_root_tag(v, lam, e1, e2):
    """The orbit tag of a root of lam read without the discriminant group.

    div(v) is the gcd of G v.  A root of div 2 has v* = v/2 mod lam, and
    v/2 = w/2 mod lam exactly when v = w mod 2 lam, so its class is the
    parity class of v among e1, e2 and e1 + e2.  None: no orbit fits.
    """
    sq = lam.square(v)
    div = gcd(*lam.gram_vec(v))
    if div == 1:
        return S2_STAR if sq == -2 else None
    if div != 2:
        return None
    parity = [x % 2 for x in v]
    if sq == -2 and parity == [x % 2 for x in e1]:
        return S2_PRIME
    if sq == -2 and parity == [x % 2 for x in e2]:
        return S2_DPRIME
    if sq == -4 and parity == [(a + b) % 2 for a, b in zip(e1, e2)]:
        return S4
    return None


def check_lattice_ledger(seed=5, root_samples=60):
    results = []
    lam = lambda_lattice()
    d = disc_group(lam)

    _, e1s = divisibility_and_star(lam.vector("e1"), lam)
    _, e2s = divisibility_and_star(lam.vector("e2"), lam)
    ok = (d.invariants == [2, 2]
          and d.q_value(e1s) == Fraction(3, 2)
          and d.q_value(e2s) == Fraction(3, 2)
          and d.q_value(d.add(e1s, e2s)) == 1
          and len({d.zero(), e1s, e2s, d.add(e1s, e2s)}) == 4)
    results.append(CheckResult("disc-group-polarized", ok,
                               "invariants=%s" % (d.invariants,)))

    e1 = lam.vector("e1")
    e2 = lam.vector("e2")
    e3 = lam.vector("e3")
    e12 = [a + b for a, b in zip(e1, e2)]
    named = [e1, e2, e3, e12]
    pairwise = all(not eichler_equivalent(v, w, lam)
                   for i, v in enumerate(named) for w in named[i + 1:])
    tags = [classify_negative_root(v, lam) for v in named]
    ok = pairwise and tags == [S2_PRIME, S2_DPRIME, S2_STAR, S4]
    results.append(CheckResult("root-orbit-tags", ok, "tags=%s" % ",".join(tags)))

    rng = random.Random(seed)
    found = 0
    tagged = set()
    ok = True
    while found < root_samples:
        v = [0] * 22
        for _ in range(rng.randint(1, 4)):
            v[rng.randrange(22)] = rng.randint(-2, 2)
        if not any(v) or not lam.is_primitive(v):
            continue
        if lam.square(v) not in (-2, -4):
            continue
        if not is_root(v, lam):
            continue
        try:
            tag = classify_negative_root(v, lam)
        except Exception:
            ok = False
            break
        tagged.add(tag)
        ok = ok and tag == _reference_root_tag(v, lam, e1, e2)
        found += 1
    results.append(CheckResult("sampled-roots-tagged", ok and found == root_samples,
                               "samples=%d tags=%s" % (found, ",".join(sorted(tagged)))))

    gt = gamma_tilde()
    results.append(CheckResult("gamma-tilde-discriminant", gt.det() == -4,
                               "det=%d" % gt.det()))

    ovs = overlattices(gt)
    ok = len(ovs) == 1
    detail = "count=%d" % len(ovs)
    if ok:
        k3 = ovs[0].lattice
        det, sig = k3.det(), k3.signature()
        ok = ovs[0].index == 2 and k3.rank == 22 and abs(det) == 1 and sig == (3, 19)
        detail += " index=%d det=%d signature=%d,%d" % ((ovs[0].index, det) + sig)
        idx, _ = sublattice_index_and_discr(k3, ovs[0].sub_in_super)
        ok = ok and idx == 2
    results.append(CheckResult("unique-even-overlattice", ok, detail))

    lt = lambda_tilde()
    stable_ok = True
    for name in ("v1", "v3"):
        _, stable = reflection(lt.vector(name), lt)
        stable_ok = stable_ok and stable
    w = [0] * 23
    w[4] = w[5] = 1
    _, stable = reflection(w, lt)
    stable_ok = stable_ok and stable
    results.append(CheckResult("square2-reflections-stable", stable_ok))

    autos = disc_autos_preserving_q(d)
    m, stable = iota_swap(lam)
    act = induced_disc_action(m, lam)
    nontrivial = any(act[k] != k for k in act)
    results.append(CheckResult("swap-involution-index-two",
                               len(autos) == 2 and not stable and nontrivial,
                               "disc-autos=%d iota-stable=%s" % (len(autos), stable)))
    return results


# ---------------------------------------------------------------------
# Hilbert square ledger
# ---------------------------------------------------------------------


def check_hilbert_ledger(seed=6, fujiki_cases=100):
    results = []
    rep = hs.delta_case_check()
    results.append(CheckResult("genus6-case", rep.ok,
                               "; ".join(l for l in rep.lines() if not rep.ok) or "q=-10"))
    rep = hs.degree2_case_check()
    results.append(CheckResult("degree2-case", rep.ok))

    ns = hs.NSRank2(4)
    h = (1, -1)
    c = (1, -2)
    ok = (ns.q(h) == 2 and ns.q(c) == -4 and ns.pair(h, c) == 0)
    # orbit of mu - 2 xi inside h-perp: square -4, divisibility 2, and the
    # starred class has the unique q-value -1 mod 2Z, which is the two-torsion
    # class fixing the fourth orbit
    lt = lambda_tilde()
    h_emb = ns.embed(h).full()
    c_emb = ns.embed(c).full()
    # c rides along as a named vector: one complement gives its coordinates
    perp = orth_complement(EvenLattice(lt.gram, named={"c": c_emb}), h_emb)
    dperp = disc_group(perp)
    div, star = divisibility_and_star(perp.vector("c"), perp)
    ok = ok and dperp.invariants == [2, 2] and div == 2 and dperp.q_value(star) == 1
    results.append(CheckResult("quartic-case-minus4-orbit", ok,
                               "div=%d qstar=%s" % (div, dperp.q_value(star))))

    formula = hs.pell_square_two_classes(10)
    brute = set(hs.pell_brute_force())
    brute |= {(-x, -y) for (x, y) in brute}
    xmax, ymax = hs.PELL_BOX
    boxed = set()
    for n, x, y in formula:
        if abs(x) <= xmax and abs(y) <= ymax:
            boxed.add((x, y))
            boxed.add((-x, -y))
    results.append(CheckResult("pell-completeness", boxed == brute,
                               "formula-in-box=%d brute=%d" % (len(boxed), len(brute))))

    ok = all(ns.q(hs.alpha_class(n)) == -2 for n in range(-20, 21))
    flips = all(hs.is_effective_double(n) == (1 if n > 0 else -1)
                for n in range(-8, 9))
    results.append(CheckResult("nodal-classes", ok and flips))

    ok = True
    for n in list(range(-6, 0)) + list(range(1, 7)):
        _, _, val = hs.obstruction_pairing(n)
        ok = ok and val == -4
    results.append(CheckResult("obstruction-pairings", ok))

    rng = random.Random(seed)
    ok = True
    for _ in range(fujiki_cases):
        a = hs.HilbClass([rng.randint(-3, 3) for _ in range(22)], rng.randint(-3, 3))
        if hs.fujiki_quartic(a, a, a, a) != 3 * hs.bb_square(a) ** 2:
            ok = False
            break
    results.append(CheckResult("fujiki-identity", ok, "cases=%d" % fujiki_cases))
    return results


# ---------------------------------------------------------------------
# Remaining operation surfaces
# ---------------------------------------------------------------------


def check_algebra_core(seed=8):
    """Determinant strategy agreement, adjugate identity, squarefree parts,
    grading reassembly, ring norms, wedge powers, the trace form and the
    conic-bundle class arithmetic: one worked example each."""
    from .poly import MultiPoly, div_exact, poly_from_text, squarefree_part as sqf
    from .polymat import PolyMatrix, adjugate_poly_matrix, det_bareiss, det_interpolate
    from .varquad import decomposable_coords, wedge_power_form
    from .zroot2 import QuadInt, PELL_UNIT

    rng = random.Random(seed)
    oks = []
    xy = ("x", "y")

    def affine(rng):
        return MultiPoly(xy, {(0, 0): rng.randint(-3, 3), (1, 0): rng.randint(-3, 3),
                              (0, 1): rng.randint(-3, 3)})

    shared = PolyMatrix([[affine(rng) for _ in range(10)] for _ in range(10)])
    oks.append(("det-strategies-10x10", det_bareiss(shared) == det_interpolate(shared)))

    m3 = PolyMatrix([[affine(rng) for _ in range(3)] for _ in range(3)])
    adj = adjugate_poly_matrix(m3)
    prod = m3.mul(adj)
    from .polymat import det_poly_matrix as dpm
    d3 = dpm(m3)
    oks.append(("adjugate-identity", all(
        prod.entries[i][j] == (d3 if i == j else MultiPoly.zero(xy))
        for i in range(3) for j in range(3))))

    f = poly_from_text("x + y", xy) ** 3 * poly_from_text("x - y", xy)
    s = sqf(f)
    expect = poly_from_text("x + y", xy) * poly_from_text("x - y", xy)
    oks.append(("squarefree-part", div_exact(s, expect).degree() == 0))

    g = affine(rng) * affine(rng) + affine(rng)
    total = MultiPoly.zero(xy)
    for i in range(g.degree() + 1):
        total = total + homogeneous_part(g, i)
    oks.append(("grading-reassembly", total == g))

    a = QuadInt(rng.randint(-9, 9), rng.randint(-9, 9))
    b = QuadInt(rng.randint(-9, 9), rng.randint(-9, 9))
    oks.append(("ring-norms", (a * b).norm() == a.norm() * b.norm()
                and (PELL_UNIT ** 7).norm() == 1
                and QuadInt(-1, 1).norm() == -1))

    q = QuadSpace(random_symmetric(rng, 4))
    vecs = [random_vector(rng, 4) for _ in range(2)]
    if linalg.rank(vecs) == 2:
        coords = decomposable_coords(vecs, 4)
        w2 = wedge_power_form(q, 2)
        direct = linalg.det(linalg.restrict_gram(q.gram, linalg.fmat(vecs)))
        oks.append(("wedge-power-decomposable", w2.value(coords) == direct))

    v = (rng.randint(-9, 9), rng.randint(-9, 9))
    w = (rng.randint(-9, 9), rng.randint(-9, 9))
    oks.append(("trace-form", hs.trace_pairing(v, w) == hs.NSRank2(4).pair(v, w)))
    conic = hs.conic_class_arithmetic()
    oks.append(("conic-class", conic.ok and conic.q_zeta == -2))
    ok = all(o for _, o in oks)
    detail = "" if ok else next(n for n, o in oks if not o)
    return CheckResult("algebra-core-surfaces", ok, detail)


def check_strata_predicates(seed=9):
    """Decomposability, dual membership, curve membership, the bad locus and
    the smooth-curve criterion on engineered instances."""
    from .wedge import (bscript_membership, curve_membership, curve_smooth_at,
                        decompose_trivector, dual_membership, theta_contains,
                        trivector_from_vectors)
    oks = []
    w123 = W123
    top = w123.top_wedge()
    w_back = decompose_trivector(top)
    oks.append(("decompose-top-wedge", w_back == w123))
    mixed = [a + b for a, b in zip(
        trivector_from_vectors(_unit(0), _unit(1), _unit(2)),
        trivector_from_vectors(_unit(3), _unit(4), _unit(5)))]
    oks.append(("non-decomposable", decompose_trivector(mixed) is None))

    frame = lagrangian_containing(w123, level=1, seed=seed)
    e5 = [_unit(i) for i in range(5)]
    # Lambda^3 <e1, e2, e3> lies in A, so E = <e1..e5> is in the dual locus
    oks.append(("dual-membership-generic-5space", dual_membership(frame, e5) is True))

    wp = Subspace3([_unit(0), _unit(3), _unit(4)])
    two = lagrangian_containing(w123, level=1, extra_theta=[wp], seed=seed + 1)
    oks.append(("two-plane-instance", theta_contains(two, wp)))
    oks.append(("bad-locus-clause1", bscript_membership(two, w123, [wp], _unit(0))))

    rng = random.Random(seed + 2)
    from .wedge import lagrangian_from_graph_basis
    v0, c = standard_chart_basis()
    found = False
    for _ in range(40):
        g = random_symmetric(rng, 10)
        for t in range(10):
            g[0][t] = g[t][0] = Fraction(0)
        for jj in (0, 1, 2, 3):
            g[1][jj] = g[jj][1] = Fraction(0)
        cand = lagrangian_from_graph_basis(v0, c, g)
        if (degeneracy_dim(cand, _unit(1)) == 2
                and degeneracy_dim(cand, _unit(0)) == 1
                and sigma_level(cand, w123) == (True, 1)):
            oks.append(("curve-membership", curve_membership(cand, w123, _unit(1))))
            oks.append(("curve-smooth-at", curve_smooth_at(cand, w123, [], _unit(1))))
            found = True
            break
    oks.append(("curve-point-found", found))
    ok = all(o for _, o in oks)
    detail = "" if ok else next(n for n, o in oks if not o)
    return CheckResult("strata-predicates", ok, detail)


def check_sextic_singularities():
    """The simple-singularity analyzer on a catalog of plane sextics."""
    from .local_model import sextic_singularity
    from .poly import poly_from_text

    xyz = ("x", "y", "z")
    P = lambda s: poly_from_text(s, xyz)
    cases = [
        (P("x^6 + y^6 - 2*z^6"), [1, 1, 1], (1, True, False, True)),
        (P("x^2 + y^2 - z^2") * P("x^3*y + x^4 + x*z^3 - 2*z^4"), [1, 0, 1],
         (2, True, False, True)),
        (P("x^3 - y^2*z") * P("x^3 + y^3 + z^3"), [0, 0, 1], (2, True, False, True)),
        (P("x*y") * P("x + y") * P("z^3") - P("x^6 + y^6"), [0, 0, 1],
         (3, True, False, True)),
        (P("x^6 - y^3*z^3"), [0, 0, 1], (3, True, True, False)),
        (P("x") ** 3 * P("x^3 + y^3 + z^3"), [0, 1, 0], (3, False, True, False)),
    ]
    ok = True
    for f, p, expected in cases:
        r = sextic_singularity(f, p)
        got = (r.multiplicity, r.reduced, r.consecutive_triple, r.simple)
        ok = ok and got == expected
    return CheckResult("plane-sextic-analyzer", ok, "cases=%d" % len(cases))


# ---------------------------------------------------------------------
# I/O and determinism
# ---------------------------------------------------------------------


def check_io_roundtrip(seed=7):
    from . import jsonio
    from .poly import poly_from_text

    rng = random.Random(seed)
    frame, _ = random_graph_lagrangian(rng, corank=1)
    docs = [
        jsonio.dump_value("lagrangian_frame", frame),
        jsonio.dump_value("subspace3", W123),
        jsonio.dump_value("even_lattice", lambda_lattice()),
        jsonio.dump_value("polynomial", poly_from_text("3/4*x^2*y - y + 5", ("x", "y"))),
        jsonio.dump_value("vector", [1, "2/3", 0, 0, 0, 1]),
        jsonio.dump_value("hilb_class", hs.NSRank2(4).embed((2, -3))),
    ]
    ok = all(jsonio.io_roundtrip(t) for t in docs)
    return CheckResult("json-roundtrip", ok, "documents=%d" % len(docs))


# ---------------------------------------------------------------------
# The report
# ---------------------------------------------------------------------


def run_report(seed=1, fast=True):
    """All checks with one ledger line each.  Returns (ok, text)."""
    if fast:
        degree_count, cases, root_samples, fujiki = 3, 25, 20, 30
    else:
        degree_count, cases, root_samples, fujiki = 20, 200, 60, 100
    out = ["epw report seed=%d mode=%s" % (seed, "fast" if fast else "full")]
    checks = [
        check_epw_degree_bound(seed, count=degree_count),
        check_taylor_orders(seed),
        check_rank_formula(seed),
        check_schur_identity(seed),
        check_double_cover_rank(),
        *quadratic_form_suites(seed, cases),
    ]
    checks.extend(check_lattice_ledger(seed + 4, root_samples=root_samples))
    checks.extend(check_hilbert_ledger(seed + 5, fujiki_cases=fujiki))
    checks.append(check_algebra_core(seed + 7))
    checks.append(check_strata_predicates(seed + 8))
    checks.append(check_sextic_singularities())
    checks.append(check_io_roundtrip(seed + 6))
    ok = all(c.ok for c in checks)
    out.extend(c.line() for c in checks)
    out.append("RESULT %s checks=%d" % ("PASS" if ok else "FAIL", len(checks)))
    return ok, "\n".join(out) + "\n"
