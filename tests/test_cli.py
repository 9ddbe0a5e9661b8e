"""CLI: verbs, exit codes, determinism, file I/O."""

import json
import random
import subprocess
import sys

import pytest

from epw import jsonio
from epw.cli import run
from epw.poly import poly_from_text, poly_to_json
from epw.wedge import Subspace3, lagrangian_containing, random_graph_lagrangian, _unit


@pytest.fixture(scope="module")
def frame_file(tmp_path_factory):
    rng = random.Random(5)
    frame, _ = random_graph_lagrangian(rng, corank=1)
    path = tmp_path_factory.mktemp("data") / "frame.json"
    path.write_text(jsonio.dump_value("lagrangian_frame", frame))
    return str(path)


@pytest.fixture(scope="module")
def plane_frame_file(tmp_path_factory):
    w = Subspace3([_unit(0), _unit(1), _unit(2)])
    frame = lagrangian_containing(w, level=2, seed=6)
    base = tmp_path_factory.mktemp("data2")
    fpath = base / "frame.json"
    fpath.write_text(jsonio.dump_value("lagrangian_frame", frame))
    wpath = base / "plane.json"
    wpath.write_text(jsonio.dump_value("subspace3", w))
    return str(fpath), str(wpath)


def test_classify_root_named_vector():
    code, out = run(["classify-root", "--lattice", "lambda", "--vector", "e1+e2"])
    assert code == 0
    assert "tag: S4" in out


def test_classify_root_failure_exit_code():
    # v3 has positive square: classification refuses, exit 1
    code, out = run(["classify-root", "--lattice", "lambda", "--vector", "v3"])
    assert code == 1


def test_bad_verb_usage_error():
    code, _ = run(["no-such-verb"])
    assert code == 2


def test_bad_path_usage_error():
    code, out = run(["degeneracy", "--frame", "/nonexistent.json", "--point",
                     "1,0,0,0,0,0"])
    assert code == 2
    assert "error" in out


def test_pell_negative_bound_usage_error():
    code, out = run(["pell", "--bound", "-1"])
    assert code == 2
    assert out.startswith("error: ")


def test_classify_root_bad_coefficient_usage_error():
    for vector in ("x*e1", "1,a"):
        code, out = run(["classify-root", "--vector", vector])
        assert code == 2
        assert out.startswith("error: ")


@pytest.mark.parametrize("verb", ["degeneracy", "local-sextic", "double-cover"])
def test_zero_point_usage_error(frame_file, verb):
    code, out = run([verb, "--frame", frame_file, "--point", "0,0,0,0,0,0"])
    assert code == 2
    assert out.startswith("error: ")


def test_sextic_sing_missing_file_usage_error(tmp_path):
    code, out = run(["sextic-sing", "--poly", str(tmp_path / "missing.json"),
                     "--point", "0,0,1"])
    assert code == 2
    assert out.startswith("error: ")


def test_sextic_sing_short_exponent_usage_error(tmp_path):
    doc = poly_to_json(poly_from_text("x^6 - y^3*z^3", ("x", "y", "z")))
    doc["terms"][0]["exponents"] = [6, 0]
    path = tmp_path / "short.json"
    path.write_text(jsonio.dumps(doc))
    code, out = run(["sextic-sing", "--poly", str(path), "--point", "0,0,1"])
    assert code == 2
    assert out.startswith("error: ")


def test_pell_bound_two():
    code, out = run(["pell", "--bound", "2"])
    assert code == 0
    assert out.count("n=") == 5
    assert "x=29  y=-41" in out


def test_pell_json_format():
    code, out = run(["pell", "--bound", "1", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert {"n": 0, "x": 1, "y": -1} in doc["classes"]


def test_degeneracy_and_strata(plane_frame_file):
    fpath, wpath = plane_frame_file
    code, out = run(["degeneracy", "--frame", fpath, "--point", "1,0,0,0,0,0"])
    assert code == 0
    assert "degeneracy dimension: 1" in out
    code, out = run(["strata", "--frame", fpath, "--plane", wpath])
    assert code == 0
    assert "theta (top wedge contained): True" in out
    assert "level" in out and ": 2" in out


def test_local_sextic_verb(frame_file):
    code, out = run(["local-sextic", "--frame", frame_file, "--point",
                     "1,0,0,0,0,0"])
    assert code == 0
    assert "f0 = 0" in out          # corank-1 instance: constant term vanishes
    assert "f = " in out


def test_double_cover_verb(frame_file):
    code, out = run(["double-cover", "--frame", frame_file, "--point",
                     "1,0,0,0,0,0"])
    assert code == 0
    assert "kernel dimension: 1" in out
    assert "g1 = " in out


def test_sextic_sing_verb(tmp_path):
    f = poly_from_text("x^6 - y^3*z^3", ("x", "y", "z"))
    path = tmp_path / "sextic.json"
    path.write_text(jsonio.dumps(poly_to_json(f)))
    code, out = run(["sextic-sing", "--poly", str(path), "--point", "0,0,1"])
    assert code == 0
    assert "multiplicity: 3" in out
    assert "consecutive_triple: True" in out
    assert "simple: False" in out


def test_disc_group_verb():
    code, out = run(["disc-group", "--lattice", "lambda"])
    assert code == 0
    # q-values on the three nonzero classes: 3/2, 3/2 and 1 (mod 2Z)
    assert out.count("= 3/2 mod 2Z") == 2
    assert out.count("= 1 mod 2Z") == 1


def test_varquad_check_verb():
    code, out = run(["varquad-check", "--count", "5", "--seed", "3"])
    assert code == 0
    assert out.count("PASS") == 4


def test_hilb_check_verb():
    code, out = run(["hilb-check", "--seed", "2"])
    assert code == 0
    assert "pell-completeness" in out


def test_report_byte_stable():
    code1, out1 = run(["report", "--seed", "1"])
    code2, out2 = run(["report", "--seed", "1"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert "RESULT PASS" in out1


def test_cli_subprocess_deterministic():
    cmd = [sys.executable, "-m", "epw", "pell", "--bound", "3"]
    a = subprocess.run(cmd, capture_output=True, text=True)
    b = subprocess.run(cmd, capture_output=True, text=True)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
