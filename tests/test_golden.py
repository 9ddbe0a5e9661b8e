"""Golden pins: outputs that every refactor must leave byte-identical.

* tests/data/report_seed1.txt is the stdout of `epw report --seed 1`
  (tests/data/report_seed1_full.txt, the `--full` ledger, is compared in
  CI only: it takes about 20 s);
* the SHA-256 of the text output of `local-sextic` and `double-cover` on
  one seeded frame per corank 0-3, at the point 1,0,0,0,0,0;
* the SHA-256 of `local-sextic` at two centers where the first coordinate
  complement meets A, so make_chart falls through to a later basis, and
  its exit code and message where no complement is transversal;
* the SHA-256 of the graded pieces Phi_i of det(q_* + q(t)) over 40
  seeded pencil families with rational entries: every side 1-8 with every
  parameter count 1-5, the first family with a zero row.
"""

from fractions import Fraction
import hashlib
from pathlib import Path
import random

import pytest

from epw import jsonio
from epw.cli import run
from epw.varquad import PencilFamily, QuadSpace, phi_expansion
from epw.wedge import (
    LagrangianFrame, Subspace3, _unit, lagrangian_containing, random_graph_lagrangian,
    trivector_from_vectors, wedge_bivector_basis,
)

DATA = Path(__file__).parent / "data"
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
PHI_DIGEST = "fae7250f94b607c1872573f05d597dd0be3994d5c9f63ef2edd999cda1401752"


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_report_matches_golden_file():
    code, out = run(["report", "--seed", "1"])
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
