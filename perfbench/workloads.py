"""The four workloads: inputs drawn from a seed, operations, output checks.

A workload is a fixed round of operations (its mix); the timed phase
repeats rounds, each with freshly drawn inputs.  Round r of a workload
depends only on (seed, r), so round 0 and its output digest are the same
whatever the machine speed.  Each operation is one `epw.cli.run(argv)`
call; `check(code, out)` verifies its output by an independent route.
"""

import os
import random
from fractions import Fraction
from math import gcd

from exact import cofactors, degree, det, parse_poly, pencil_at, split_at

POINT = "1,0,0,0,0,0"
CHART_VARS = ("t1", "t2", "t3", "t4", "t5")
FORMS_COUNT = 4          # --count of each varquad-check operation
FORMS_PER_ROUND = 6
# classify-root calls per lattices round, beside one overlattices, one
# disc-group and one hilb-check: the mix of one `epw report --full`, whose
# lattice ledger classifies 60 sampled roots next to one disc group and one
# overlattices search, and whose Hilbert-square ledger runs once.
ROOTS_PER_ROUND = 60


class Op:
    __slots__ = ("argv", "check")

    def __init__(self, argv, check):
        self.argv = argv
        self.check = check


def _off_grid_points(rng, count):
    """Chart points with non-integer rational coordinates."""
    pts = []
    while len(pts) < count:
        t = [Fraction(rng.randint(-9, 9), rng.randint(2, 7)) for _ in range(5)]
        if all(x.denominator != 1 for x in t):
            pts.append(t)
    return pts


def _write_frame(ctx, tag, frame):
    path = os.path.join(ctx.workdir, tag + ".json")
    with open(path, "w") as fh:
        fh.write(ctx.epw.jsonio.dump_value("lagrangian_frame", frame))
    return path


def _graph_frames(ctx, rng, tag, coranks):
    """Seeded graph Lagrangians over the standard chart, as in acceptance
    criterion 1; returns (path, Gram of q_A) per requested corank."""
    out = []
    for i, k in enumerate(coranks):
        frame, gram = ctx.epw.wedge.random_graph_lagrangian(rng, corank=k)
        out.append((_write_frame(ctx, "%s-%d" % (tag, i), frame), gram))
    return out


class Context:
    """Per-run state: the loaded package, the seed and the input directory."""

    def __init__(self, epw, seed, workdir):
        self.epw = epw
        self.seed = seed
        self.workdir = workdir


# ---------------------------------------------------------------------
# sextic: local-sextic on corank-0 and corank-1 frames, 3 : 1
# ---------------------------------------------------------------------


def _check_sextic(gram, points):
    def check(code, out):
        if code != 0:
            return False
        line = next(l for l in out.splitlines() if l.startswith("f = "))
        terms = parse_poly(line[4:])
        if not terms or degree(terms) > 6:
            return False
        for t in points:
            value = split_at(terms, dict(zip(CHART_VARS, t)), ()).get((), 0)
            if value != det(pencil_at(gram, t)):
                return False
        return True

    return check


def sextic_round(ctx, r):
    rng = random.Random("sextic:%d:%d" % (ctx.seed, r))
    ops = []
    for path, gram in _graph_frames(ctx, rng, "sextic-%d" % r, (0, 0, 0, 1)):
        argv = ["local-sextic", "--frame", path, "--point", POINT]
        ops.append(Op(argv, _check_sextic(gram, _off_grid_points(rng, 2))))
    return ops


# ---------------------------------------------------------------------
# cover: double-cover on frames of corank 1, 2 and 3
# ---------------------------------------------------------------------


def _check_cover(gram, k, points):
    xis = tuple("xi%d" % (i + 1) for i in range(k))
    unit = [tuple(int(i == j) for i in range(k)) for j in range(k)]

    def check(code, out):
        if code != 0:
            return False
        gens = [parse_poly(l.split(" = ", 1)[1]) for l in out.splitlines()
                if l.startswith("g")]
        if len(gens) != k + k * (k + 1) // 2:
            return False
        ratios = set()
        for t in points:
            at = dict(zip(CHART_VARS, t))
            parts = [split_at(g, at, xis) for g in gens]
            # g_i = sum_j M_hat[i][j] xi_j
            mhat = [[parts[i].get(unit[j], 0) for j in range(k)] for i in range(k)]
            if any(set(parts[i]) - set(unit) for i in range(k)):
                return False
            # fiber generators: D^(k-1) xi_i xi_j - cof(M_hat)_ij, i <= j
            cof = cofactors(mhat)
            dpow = None
            fiber = iter(parts[k:])
            for i in range(k):
                for j in range(i, k):
                    part = next(fiber)
                    mono = tuple(unit[i][s] + unit[j][s] for s in range(k))
                    if set(part) - {mono, (0,) * k}:
                        return False
                    dpow = part.get(mono, 0) if dpow is None else dpow
                    if part.get(mono, 0) != dpow or part.get((0,) * k, 0) != -cof[i][j]:
                        return False
            base = det(pencil_at(gram, t)) * dpow
            if base == 0:
                return False
            ratios.add(det(mhat) / base)
        return len(ratios) == 1 and 0 not in ratios

    return check


def cover_round(ctx, r):
    rng = random.Random("cover:%d:%d" % (ctx.seed, r))
    ops = []
    for k, (path, gram) in zip((1, 2, 3), _graph_frames(ctx, rng, "cover-%d" % r, (1, 2, 3))):
        argv = ["double-cover", "--frame", path, "--point", POINT]
        ops.append(Op(argv, _check_cover(gram, k, _off_grid_points(rng, 2))))
    return ops


# ---------------------------------------------------------------------
# forms: varquad-check, one operation per consecutive seed
# ---------------------------------------------------------------------


def _check_passes(code, out):
    lines = out.splitlines()
    return code == 0 and len(lines) > 1 and all(l.startswith("PASS ") for l in lines[1:])


def forms_round(ctx, r):
    first = 1000 * ctx.seed + r * FORMS_PER_ROUND
    return [Op(["varquad-check", "--count", str(FORMS_COUNT), "--seed", str(first + i)],
               _check_passes)
            for i in range(FORMS_PER_ROUND)]


# ---------------------------------------------------------------------
# lattices: classify-root with overlattices, disc-group and hilb-check
# ---------------------------------------------------------------------


class LambdaData:
    """The polarized lattice's Gram matrix and named vectors, read once."""

    def __init__(self, epw):
        lam = epw.lattices.lambda_lattice()
        self.gram = [list(row) for row in lam.gram]
        self.e1 = lam.vector("e1")
        self.e2 = lam.vector("e2")
        self._det = None

    def gram_vec(self, v):
        return [sum(g * x for g, x in zip(row, v)) for row in self.gram]

    def square(self, v):
        return sum(a * b for a, b in zip(v, self.gram_vec(v)))

    def divisibility(self, v):
        d = 0
        for x in self.gram_vec(v):
            d = gcd(d, x)
        return d

    def abs_det(self):
        if self._det is None:
            self._det = abs(det(self.gram))
        return self._det

    def expected_tag(self, v):
        """Orbit tag from (square, divisibility, v/div mod the lattice)."""
        sq, div = self.square(v), self.divisibility(v)
        if sq == -2 and div == 1:
            return "S2_STAR"

        def same_class(w):   # v/2 = w/2 modulo the lattice
            return all((a - b) % 2 == 0 for a, b in zip(v, w))

        if sq == -2 and div == 2:
            return "S2_PRIME" if same_class(self.e1) else "S2_DPRIME" if same_class(self.e2) else None
        if sq == -4 and div == 2:
            e12 = [a + b for a, b in zip(self.e1, self.e2)]
            return "S4" if same_class(e12) else None
        return None


def sample_root(lam, rng):
    """A primitive root of square -2 or -4, drawn as check_lattice_ledger
    draws them: one to four random coordinates in [-2, 2]."""
    n = len(lam.gram)
    while True:
        v = [0] * n
        for _ in range(rng.randint(1, 4)):
            v[rng.randrange(n)] = rng.randint(-2, 2)
        g = 0
        for x in v:
            g = gcd(g, x)
        if g != 1:
            continue
        sq = lam.square(v)
        if sq == -2 or (sq == -4 and lam.divisibility(v) % 2 == 0):
            return v


def _check_root(lam, v):
    def check(code, out):
        if code != 0:
            return False
        fields = dict(l.split(": ", 1) for l in out.splitlines())
        tag = lam.expected_tag(v)
        return tag is not None and fields.get("tag") == tag and \
            fields.get("square") == str(lam.square(v))

    return check


def _check_overlattices(code, out):
    lines = out.splitlines()
    return (code == 0 and "even index-2 overlattices: 1" in lines
            and any(l.startswith("#0: index=2 det=-1 signature=(3,19) ") for l in lines))


def _check_disc_group(lam):
    def check(code, out):
        if code != 0:
            return False
        line = next(l for l in out.splitlines() if l.startswith("invariant factors: "))
        product = 1
        for x in line.split(": ", 1)[1].strip("[]").split(","):
            product *= int(x)
        return product == lam.abs_det()

    return check


def lattices_round(ctx, r):
    lam = ctx.lam
    rng = random.Random("lattices:%d:%d" % (ctx.seed, r))
    extras = [Op(["overlattices", "--lattice", "gamma-tilde"], _check_overlattices),
              Op(["disc-group", "--lattice", "lambda"], _check_disc_group(lam)),
              Op(["hilb-check"], _check_passes)]
    ops = []
    per = ROOTS_PER_ROUND // len(extras)
    for extra in extras:
        for _ in range(per):
            v = sample_root(lam, rng)
            argv = ["classify-root", "--lattice", "lambda", "--vector=" + ",".join(map(str, v))]
            ops.append(Op(argv, _check_root(lam, v)))
        ops.append(extra)
    return ops


def lattices_setup(ctx):
    ctx.lam = LambdaData(ctx.epw)


WORKLOADS = {
    "sextic": (None, sextic_round),
    "cover": (None, cover_round),
    "forms": (None, forms_round),
    "lattices": (lattices_setup, lattices_round),
}
