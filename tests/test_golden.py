"""Golden pins: outputs that every refactor must leave byte-identical.

* tests/data/report_seed1.txt is the stdout of `epw report --seed 1`
  (tests/data/report_seed1_full.txt, the `--full` ledger, is compared in
  CI only: it takes about 20 s);
* the SHA-256 of the text output of `local-sextic` and `double-cover` on
  one seeded frame per corank 0-3, at the point 1,0,0,0,0,0;
* the SHA-256 of `local-sextic` at two centers where the first coordinate
  complement meets A, so make_chart falls through to a later basis, and
  its exit code and message where no complement is transversal;
* the exit code and SHA-256 of `local-sextic --format json` and
  `double-cover --format json` on the four corank frames and at the two
  off-chart centers: the polynomial's JSON terms and the text of its
  graded parts, and the text of the double cover's generators;
* the SHA-256 of the graded pieces Phi_i of det(q_* + q(t)) over 40
  seeded pencil families with rational entries: every side 1-8 with every
  parameter count 1-5, the first family with a zero row;
* the SHA-256 of Gram matrices carried to another basis: seeded dual
  forms, symmetric_with_kernel draws at coranks 1-3, the restricted Grams
  of the Fraction route to cork_restrict and DualForm.corank_on, and the
  Gram of e1^perp in the polarized lattice;
* the SHA-256 of the strata predicates (degeneracy_dim, sigma_level,
  theta_contains, dual_membership) and of the `degeneracy` and `strata`
  text output on 51 seeded frames: points of degeneracy 0-3 and 10,
  planes of level 1-3 and frames without a Theta plane;
* the SHA-256 of the JSON documents of seeded graph frames
  (random_graph_lagrangian at coranks 0-3, also on every seed 0-199,
  lagrangian_containing at levels 1-3, off the coordinate planes and with
  an extra Theta plane);
* the SHA-256 of the swap involution iota_swap(lambda) and its action on
  the discriminant group;
* the SHA-256 of the Gram, named vectors and hyperbolic pairs of the
  eight named lattices, each built afresh, and of `overlattices --format
  json` on gamma-tilde and two JSON lattices with their overlattices'
  named vectors, pairs and embeddings;
* the SHA-256 of the stdout of each demo in demos/;
* the SHA-256 of `varquad-check --count 4` over seeds 1000-1029 and of
  `hilb-check --seed 0..2`, and of the failure text of `varquad-check`,
  `hilb-check` and `report` with one check forced to fail.
"""

from fractions import Fraction
import hashlib
import os
from pathlib import Path
import random
import subprocess
import sys

import pytest

from epw import jsonio, linalg
from epw.cli import run
from epw.lattices import (
    NAMED_LATTICES, EvenLattice, direct_sum, hyperbolic_plane, induced_disc_action,
    iota_swap, lambda_lattice, orth_complement, overlattices, rank_one,
)
from epw.varquad import (
    PencilFamily, QuadSpace, ann_of_span, cork_restrict, dual_form, phi_expansion,
)
from epw.wedge import (
    LagrangianFrame, Subspace3, _unit, degeneracy_dim, dual_membership,
    lagrangian_containing, random_graph_lagrangian, random_symmetric, random_vector,
    sigma_level, symmetric_with_kernel, theta_contains, trivector_from_vectors,
    wedge_bivector_basis,
)

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
POINT = "1,0,0,0,0,0"

CHART_DIGESTS = {
    ("local-sextic", 0):
        "d3b8fb247225f8b4bef8eabbe6eafd5434bae5c789f9313603e245d60fc3efee",
    ("local-sextic", 1):
        "2cf7004832addcb1331710347df52b7d5c6612ad3ed5626ff3a20c6cdb3db6c4",
    ("local-sextic", 2):
        "830ad33470e08e96d1a970ce3ee0e7a18ce08929855918edf4749622e4eae80f",
    ("local-sextic", 3):
        "5e00b376ec600164f16b14c5b9d43f02e9171b3c62734fad6ac8043ba72120c4",
    ("double-cover", 0):
        "1883db386930ba81b03024994c3c2cdf1e259a9c6dd2fe3bdbe22362c988aeb7",
    ("double-cover", 1):
        "6cb53e8fcbb56acbbe5209e673c285ffcb973c0bfaa00cec3884809fec233742",
    ("double-cover", 2):
        "b3aa1a13112029a3117ec8d90dd3e605c43d3c813d05eae4708fcc9f27d77133",
    ("double-cover", 3):
        "0bf1ece83f1ed84a7624aaf410a2535024c193c063645f80209c1cc9217d2dbb",
}
# name -> (frame builder, point, SHA-256 of the local-sextic output)
OFF_CHART = {
    # Lambda^3 W123 ⊂ A meets the complement <e1, e2, e3, e5, e6>
    "plane-seed18": (
        lambda: lagrangian_containing(Subspace3([_unit(0), _unit(1), _unit(2)]),
                                      level=1, seed=18),
        "0,0,0,1,0,0",
        "af624463159e3b5fbbc3a96583bfbe7f4f22a7c833673b55ca699654a1e4bb3b"),
    # A = e2 ^ Lambda^2 V meets the complement <e2, ..., e6>
    "vee-e2": (
        lambda: LagrangianFrame(wedge_bivector_basis(_unit(1))),
        "1,2,3,0,0,0",
        "12733d12995552d8ef844e138fd9208d683d7adc1d7a8dd49815a5a42b36c87c"),
}
# (verb, corank k or OFF_CHART name) -> (exit code, SHA-256 of the output)
# of `verb --format json`
JSON_DIGESTS = {
    ("local-sextic", "0"):
        (0, "66a4bb99c593441ba1375badec8466ce050f7b97ade13ced40763f70954b1dfa"),
    ("local-sextic", "1"):
        (0, "fd9ba362cedd0772cfb5bc53bf0651871eb07370c9ffeecf35a83d0fd36b21cf"),
    ("local-sextic", "2"):
        (0, "66211d8443f5bde09d4cf0d52b997b801e94830e674fb7596986f3c9b8b5f561"),
    ("local-sextic", "3"):
        (0, "daf119a4f2971517150f0f6182e2b04dec90414447ef3addfb764be3e776649d"),
    ("local-sextic", "plane-seed18"):
        (0, "987e3f6d4436d358037fb1b4767dfcc8493db34a92932269e5b2c6e524f752d5"),
    ("local-sextic", "vee-e2"):
        (0, "749de58b2c4a29051e2035fbf1fe27fdd5c52e9dcdae59b2f47b03401ffb8f12"),
    ("double-cover", "0"):
        (0, "2440b6a096319e8fe02327c6dbc16124899b63861edd97bf92c0c6d73fdf8443"),
    ("double-cover", "1"):
        (0, "a9a99a4bfb3b6ce88710d4103a678cf8f5c8958c30eec9851b3c7fcffd1ddc4c"),
    ("double-cover", "2"):
        (0, "d8107b92e5e9eed049fcdb32e0ceb8017bbd251e199ac35a88750d1894109900"),
    ("double-cover", "3"):
        (0, "7ffbded71cd9f179122443c769ffdf218e7a3dd3724cb213fd22aa1544ad09b2"),
    ("double-cover", "plane-seed18"):
        (0, "2440b6a096319e8fe02327c6dbc16124899b63861edd97bf92c0c6d73fdf8443"),
    # the kernel at this center is beyond the double-cover model: exit 2
    ("double-cover", "vee-e2"):
        (2, "cedc31185789b067cfce3156b1bc555326915d2a473efe2c15597feceb7bba3b"),
}
FRAME_DIGESTS = {
    "random-graph":
        "34ecd6c92f643596da39703f5a11cfdb73b397efd91d85c99e056a326ede96c4",
    "containing":
        "62255dca590784d7ea49908d898c2b124e8bee68a7868ee5c3b5ae3b2a6e3027",
    "graph-seeds-0-199":
        "b335b6b745b482c07480479298ad3c6dff1a1cedcc4f14fb5c4d32dbb4b62597",
}
STRATA_DIGEST = "9baf445bb83af4aa317e6b02be1d7b023a56cd9c6e53fa6516eb459ddae5c8b8"
LATTICE_DIGESTS = {
    "named": "f0cb24761a6028056060089be66ee26799f7d8db6cbb0dfe474962616df2e97b",
    "overlattices": "4e85d05038f3d0ea483bd1b84501f1c3b348cb8afac16e7b04bfd8a5ea7cefdd",
}
SWAP_DIGEST = "b76a959863143b59c468923551dde700e2975bc21036dd5738321600419ee0cd"
DEMO_DIGESTS = {
    "01_local_models.py":
        "84dde953a698c05f7e9d7f284fb2850db00bd1201aa5287300aea85164634678",
    "02_double_cover.py":
        "decb7d7906eeca948f44c010043e6f504a66d553642cfd2b783fea22cc24a6ef",
    "03_quadratic_pencils.py":
        "b2cf4a0a9de101677e7f54c013103d7eb925ac1a3457df39a0a11d42dab1eb4d",
    "04_lattice_orbits.py":
        "deb3fe0384b42b88de36a8fc73bf4bfbcf760becf5e75839541bc55e7fffdb83",
    "05_pell_classes.py":
        "4efbb8b8d0c65a1822e12f26f83c3893b9f9dd8b4135bffe5388c72451217f54",
    "06_plane_sextics.py":
        "b39266cb679601c51eb579e41b7710b351e7f3c9338fa0db70c5af0b43c45d90",
}
PHI_DIGEST = "fae7250f94b607c1872573f05d597dd0be3994d5c9f63ef2edd999cda1401752"
GRAM_DIGESTS = {
    "dual-form":
        "5df285d7e42e95ef343518bd281be18def3ce20cd1407fe12d9d82fc3a0512b3",
    "symmetric-with-kernel":
        "b19c11b35065f45c3bfb38ecea9eb129bf53105c909b40589566762d3d2d3f4d",
    "restricted":
        "3ee3369a66a377809d7fb1c648ba37f83507cbd130a3ddf596fdc5709cc621f7",
    "lambda-e1-perp":
        "77d0c208e0bdafdaa037b172eee62e4db03391025ad441acaff79d21aeab989a",
}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_report_matches_golden_file(fast_report):
    code, out = fast_report
    assert code == 0
    assert "RESULT PASS" in out
    assert out + "\n" == (DATA / "report_seed1.txt").read_text()


@pytest.fixture(scope="module")
def corank_frames(tmp_path_factory):
    base = tmp_path_factory.mktemp("golden")
    paths = {}
    for k in range(4):
        frame, _ = random_graph_lagrangian(random.Random(100 + k), corank=k)
        path = base / ("frame%d.json" % k)
        path.write_text(jsonio.dump_value("lagrangian_frame", frame))
        paths[k] = str(path)
    return paths


@pytest.mark.parametrize("verb,k", sorted(CHART_DIGESTS))
def test_chart_output_digest(corank_frames, verb, k):
    code, out = run([verb, "--frame", corank_frames[k], "--point", POINT])
    assert code == 0
    assert _sha(out) == CHART_DIGESTS[verb, k]


def _frame_file(tmp_path, frame):
    path = tmp_path / "frame.json"
    path.write_text(jsonio.dump_value("lagrangian_frame", frame))
    return str(path)


@pytest.mark.parametrize("name", sorted(OFF_CHART))
def test_off_standard_chart_digest(tmp_path, name):
    build, point, digest = OFF_CHART[name]
    code, out = run(["local-sextic", "--frame", _frame_file(tmp_path, build()),
                     "--point", point])
    assert code == 0
    assert _sha(out) == digest


@pytest.mark.parametrize("verb,key", sorted(JSON_DIGESTS))
def test_json_output_digest(corank_frames, tmp_path, verb, key):
    if key in OFF_CHART:
        build, point, _ = OFF_CHART[key]
        path = _frame_file(tmp_path, build())
    else:
        path, point = corank_frames[int(key)], POINT
    code, out = run([verb, "--frame", path, "--point", point, "--format", "json"])
    assert (code, _sha(out)) == JSON_DIGESTS[verb, key]


def test_no_transversal_chart_message(tmp_path):
    rows = [trivector_from_vectors(_unit(a), _unit(b), _unit(c))
            for a in range(5) for b in range(a + 1, 5) for c in range(b + 1, 5)]
    path = _frame_file(tmp_path, LagrangianFrame(rows))
    code, out = run(["local-sextic", "--frame", path, "--point", "0,0,0,0,0,1"])
    assert (code, out) == (1, "no transversal V0 found in 40 attempts: possible "
                              "pathology (dual degeneracy locus equal to the "
                              "whole dual space)")


def _rational_symmetric(rng, d):
    m = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            if rng.random() < 0.7:
                m[i][j] = m[j][i] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return m


def golden_families():
    rng = random.Random(7)
    out = []
    for i in range(40):
        d, m = i % 8 + 1, i % 5 + 1
        base = _rational_symmetric(rng, d)
        coeffs = [_rational_symmetric(rng, d) for _ in range(m)]
        if i == 0:
            for mat in [base] + coeffs:
                for j in range(d):
                    mat[0][j] = mat[j][0] = Fraction(0)
        out.append(PencilFamily(QuadSpace(base), coeffs))
    return out


def test_phi_expansion_digest():
    text = "\n".join(" | ".join(p.to_text() for p in phi_expansion(fam))
                     for fam in golden_families())
    assert _sha(text) == PHI_DIGEST


def _matrix_text(m):
    return "\n".join(" ".join(str(x) for x in row) for row in m)


def _grams_digest(mats):
    return _sha("\n\n".join(_matrix_text(m) for m in mats))


def test_dual_form_gram_digest():
    rng = random.Random(31)
    grams = []
    for i in range(24):
        d = i % 6 + 2
        base = _rational_symmetric(rng, d)
        grams.append(dual_form(QuadSpace(base)).gram)
    assert _grams_digest(grams) == GRAM_DIGESTS["dual-form"]


def test_symmetric_with_kernel_digest():
    mats = []
    for k in (1, 2, 3):
        for n in (k + 1, 6, 10):
            rng = random.Random(50 + 10 * k + n)
            mats.append(symmetric_with_kernel(rng, n, [random_vector(rng, n)
                                                       for _ in range(k)]))
            mats.append([random_vector(rng, 3)])  # pins how much randomness a draw used
    assert _grams_digest(mats) == GRAM_DIGESTS["symmetric-with-kernel"]


def test_restricted_gram_digest():
    """The Grams that the Fraction route of cork_restrict and corank_on
    forms, by linalg.restrict_gram on the same bases: q on the reduced
    rows of S, and the dual Gram on the reduced coordinates of Ann S in
    the dual form's covector basis.  The integer route forms none of
    them; its coranks are len(basis) - rank of each."""
    seen = []
    rng = random.Random(41)
    for i in range(30):
        d = i % 6 + 2
        q = QuadSpace(random_symmetric(rng, d))
        s = [random_vector(rng, d) for _ in range(rng.randint(1, d))]
        basis = linalg.row_basis(s)
        if basis:
            seen.append(linalg.restrict_gram(q.gram, basis))
            assert cork_restrict(q, s) == len(basis) - linalg.rank(seen[-1])
        else:
            assert cork_restrict(q, s) == 0
        if q.corank() == 0:
            dual = dual_form(q)
            covectors = ann_of_span(basis, d)
            coords = linalg.row_basis(linalg.solve(linalg.transpose(dual.ann_basis), covectors))
            if coords:
                seen.append(linalg.restrict_gram(dual.gram, coords))
                assert dual.corank_on(covectors) == len(coords) - linalg.rank(seen[-1])
            else:
                assert dual.corank_on(covectors) == 0
    assert len(seen) > 30
    assert _grams_digest(seen) == GRAM_DIGESTS["restricted"]


def test_orth_complement_gram_digest():
    lam = lambda_lattice()
    comp = orth_complement(lam, lam.vector("e1"))
    assert comp.rank == 21
    assert _grams_digest([comp.gram]) == GRAM_DIGESTS["lambda-e1-perp"]


def _frames_digest(frames):
    return _sha("".join(jsonio.dump_value("lagrangian_frame", a) for a in frames))


def test_random_graph_frame_digest():
    """Two seeded graph frames per corank 0-3."""
    frames = []
    for k in range(4):
        rng = random.Random(60 + k)
        frames += [random_graph_lagrangian(rng, corank=k)[0] for _ in range(2)]
    assert _frames_digest(frames) == FRAME_DIGESTS["random-graph"]


def test_graph_frames_on_seeds_0_to_199_digest():
    """random_graph_lagrangian at coranks 0-3 from Random(seed) for seeds
    0-199, the sampler behind the benchmark's frames: the integer draws
    must give the frames, byte for byte, that the Fraction draws gave."""
    frames = [random_graph_lagrangian(random.Random(seed), corank=k)[0]
              for seed in range(200) for k in range(4)]
    assert _frames_digest(frames) == FRAME_DIGESTS["graph-seeds-0-199"]


def test_lagrangian_containing_frame_digest():
    w123 = Subspace3([_unit(0), _unit(1), _unit(2)])
    # a plane off the coordinate planes: its chart vectors are rational
    w = Subspace3([[1, 2, 0, 0, 0, 0], [0, 1, 3, 0, 0, 0], [0, 0, 1, 1, 1, 0]])
    wp = Subspace3([_unit(0), _unit(3), _unit(4)])
    frames = [lagrangian_containing(w123, level=lv, seed=lv) for lv in (1, 2, 3)]
    frames += [lagrangian_containing(w, level=lv, seed=5 + lv) for lv in (1, 2, 3)]
    frames.append(lagrangian_containing(w123, level=1, extra_theta=[wp], seed=3))
    assert _frames_digest(frames) == FRAME_DIGESTS["containing"]


def strata_frames():
    """51 seeded frames: graph frames of corank 0-3 at e1, Theta frames of
    level 1-3 over W = <e1, e2, e3>, one with a second Theta plane, and
    e1 ^ Lambda^2 V."""
    w123 = Subspace3([_unit(0), _unit(1), _unit(2)])
    wp = Subspace3([_unit(0), _unit(3), _unit(4)])
    frames = [random_graph_lagrangian(random.Random(200 + i), corank=i % 4)[0]
              for i in range(40)]
    frames += [lagrangian_containing(w123, level=lv, seed=10 * lv + s)
               for lv in (1, 2, 3) for s in range(3)]
    frames.append(lagrangian_containing(w123, level=1, extra_theta=[wp], seed=3))
    frames.append(LagrangianFrame(wedge_bivector_basis(_unit(0))))
    return w123, frames


def test_strata_predicates_digest(tmp_path):
    """Each frame at e1, e2, (1, 1, 0, 0, 0, 0) and a seeded point, against
    W123 and a seeded plane, and against <e1..e5> and a seeded 5-space,
    then the `degeneracy` text at e1 and the `strata` text for W123."""
    rng = random.Random(77)
    w123, frames = strata_frames()
    plane = tmp_path / "plane.json"
    plane.write_text(jsonio.dump_value("subspace3", w123))
    e5 = [_unit(i) for i in range(5)]
    parts = []
    for frame in frames:
        point = random_vector(rng, 6, nonzero=True)
        w = None
        while w is None:
            try:
                w = Subspace3([random_vector(rng, 6) for _ in range(3)])
            except ValueError:
                pass
        e = [random_vector(rng, 6) for _ in range(5)]
        while linalg.rank(e) != 5:
            e = [random_vector(rng, 6) for _ in range(5)]
        record = [degeneracy_dim(frame, v) for v in
                  (_unit(0), _unit(1), [1, 1, 0, 0, 0, 0], point)]
        record += [sigma_level(frame, w123), sigma_level(frame, w),
                   theta_contains(frame, w123), theta_contains(frame, w),
                   dual_membership(frame, e5), dual_membership(frame, e)]
        path = _frame_file(tmp_path, frame)
        record.append(run(["degeneracy", "--frame", path, "--point", POINT]))
        record.append(run(["strata", "--frame", path, "--plane", str(plane)]))
        parts.append(repr(record))
    levels = {sigma_level(a, w123) for a in frames}
    assert {(True, 1), (True, 2), (True, 3), (False, 0)} <= levels
    assert {degeneracy_dim(a, _unit(0)) for a in frames} == {0, 1, 2, 3, 10}
    assert _sha("\n".join(parts)) == STRATA_DIGEST


def test_iota_swap_digest():
    lam = lambda_lattice()
    m, stable = iota_swap(lam)
    act = induced_disc_action(m, lam)
    text = "%s\n%r\n%r" % (_matrix_text(m), stable, sorted(act.items()))
    assert _sha(text) == SWAP_DIGEST


def _lattice_text(l):
    return "%r\n%r\n%r" % (l.gram, sorted(l.named.items()), l.u2_pairs)


def test_named_lattice_digest():
    """Every named lattice built afresh, past the process cache: the
    complements and overlattices of the tower carry their named vectors
    and hyperbolic pairs by coordinates in a sublattice basis."""
    text = "\n".join("%s\n%s" % (name, _lattice_text(NAMED_LATTICES[name].__wrapped__()))
                     for name in sorted(NAMED_LATTICES))
    assert _sha(text) == LATTICE_DIGESTS["named"]


def test_overlattices_digest(tmp_path):
    """overlattices on gamma-tilde and on U + U(2) (two overlattices) and
    U + U + <-2>^4 (one), with the named vectors, hyperbolic pairs and
    embedding that each overlattice carries."""
    u, m2 = hyperbolic_plane(), rank_one(-2)
    e = [[int(i == j) for j in range(8)] for i in range(4)]
    built = [
        EvenLattice([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 2, 0]],
                    named={"a": [1, 1, 0, 0], "b": [0, 0, 1, 0], "c": [0, 1, 1, 1]},
                    u2_pairs=[([1, 0, 0, 0], [0, 1, 0, 0])]),
        EvenLattice(direct_sum(u, u, m2, m2, m2, m2).gram,
                    named={"e1": [0] * 4 + [1, 0, 0, 0], "s": [1, 2, 0, 0, 1, 1, 1, 1]},
                    u2_pairs=[(e[0], e[1]), (e[2], e[3])]),
    ]
    parts = []
    for i, l in enumerate([NAMED_LATTICES["gamma-tilde"]()] + built):
        argv = ["overlattices", "--lattice", "gamma-tilde", "--format", "json"]
        if i:
            path = tmp_path / ("lattice%d.json" % i)
            path.write_text(jsonio.dumps(jsonio.lattice_to_json(l)))
            argv[1:3] = ["--lattice-json", str(path)]
        code, out = run(argv)
        ovs = overlattices(l)
        assert code == 0 and ovs
        parts.append("%d\n%s" % (code, out))
        parts.extend("%s\n%r\n%r" % (_lattice_text(o.lattice), o.index, o.sub_in_super)
                     for o in ovs)
    assert _sha("\n".join(parts)) == LATTICE_DIGESTS["overlattices"]


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_demo_stdout_digest(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert _sha(done.stdout) == DEMO_DIGESTS[name]


# Ledger wiring: which suites a verb runs, on which seeds, and how a
# failing check is reported.
LEDGER_DIGESTS = {
    "varquad-check": "cc9294b06305b63735dad7332105af3ea89184038b13f1bba985afe019b6d65e",
    "hilb-check": "eb5574c1d2b14551b8168d56482f2d69d5815e4801b508392fd6823b1c6fe6ec",
}
FAILURE_DIGESTS = {
    "varquad-check": "2b6645035a3c5c1c1f24c8342d5d8d73ed3cbce43574ca6af42e30827bd12e72",
    "hilb-check": "3522d82f016b5e6c7701ca9165b0e3d85fa8a55ef5ae04c8b6b5efaf25e676e0",
    "report": "2607a78486dbf402ebc0912e178e0081d7cfff9738e015c785e5cd3078b538ac",
}


def _runs_digest(argvs):
    parts = []
    for argv in argvs:
        code, out = run(argv)
        parts.append("%s -> %d\n%s" % (" ".join(argv), code, out))
    return _sha("\n".join(parts))


def test_varquad_check_ledger_digest():
    """varquad-check --count 4 over seeds 1000-1029, the forms workload's draws."""
    argvs = [["varquad-check", "--count", "4", "--seed", str(s)] for s in range(1000, 1030)]
    assert _runs_digest(argvs) == LEDGER_DIGESTS["varquad-check"]


def test_hilb_check_ledger_digest():
    argvs = [["hilb-check", "--seed", str(s)] for s in range(3)]
    assert _runs_digest(argvs) == LEDGER_DIGESTS["hilb-check"]


@pytest.mark.parametrize("argv", [
    ["varquad-check", "--count", "4", "--seed", "3"],
    ["hilb-check", "--seed", "1"],
    ["report", "--seed", "1"],
])
def test_failure_text_digest(monkeypatch, argv):
    """One check forced to fail: exit 1 with the ledger and the first failure."""
    from epw import checks
    monkeypatch.setattr(checks, "phi2_rank", lambda fam: (0, 1, False))
    monkeypatch.setattr(checks.hs, "fujiki_quartic", lambda a, b, c, d: 0)
    code, out = run(argv)
    assert code == 1
    first = "fujiki-identity" if argv[0] == "hilb-check" else "phi2-rank-formula"
    assert out.splitlines()[-1].startswith("first failure: " + first)
    assert _sha(out) == FAILURE_DIGESTS[argv[0]]
