"""Exact counts from the tracer and the output checks' power to fail.

    python3 -m pytest perfbench -q
"""

import json
import os
import random
import shutil
import subprocess
import sys
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import epw  # noqa: E402
from epw import cli, jsonio, lattices, local_model, polymat, wedge  # noqa: E402

import run  # noqa: E402
from tracer import Recorder, Tracer  # noqa: E402
import workloads  # noqa: E402


def _frame(tmp_path, corank, seed=11):
    frame, gram = wedge.random_graph_lagrangian(random.Random(seed), corank=corank)
    path = tmp_path / ("frame%d.json" % corank)
    path.write_text(jsonio.dump_value("lagrangian_frame", frame))
    return str(path), gram


def _traced(argv):
    tracer = Tracer().install()
    try:
        code, out = cli.run(argv)
    finally:
        tracer.uninstall()
    return code, out, tracer.recorder, tracer.recorder.summary(lambda t: 1.0)


def test_every_binding_is_rebound_and_restored():
    originals = {
        "interp": polymat.interpolate_poly_map,
        "sextic": local_model.local_sextic,
        "det": polymat.det_poly_matrix,
        "mul": epw.poly.MultiPoly.__dict__["__mul__"],
        "ctors": dict(lattices.NAMED_LATTICES),
        "verbs": dict(cli.VERBS),
    }
    tracer = Tracer().install()
    patches = list(tracer.patches)
    try:
        assert tracer.bindings["polymat.interpolate_poly_map"] == 2
        assert tracer.bindings["local_model.local_sextic"] == 3
        assert tracer.bindings["polymat.det_poly_matrix"] == 4
        assert tracer.bindings["poly.MultiPoly.__mul__"] == 2      # __mul__, __rmul__
        assert local_model.interpolate_poly_map is not originals["interp"]
        assert epw.local_sextic is not originals["sextic"]
        assert all(lattices.NAMED_LATTICES[k] is not v for k, v in originals["ctors"].items())
        assert all(cli.VERBS[k] is not v for k, v in originals["verbs"].items())
    finally:
        tracer.uninstall()
    for kind, container, key, original in patches:
        current = container[key] if kind == "dict" else getattr(container, key)
        assert current is original
    assert local_model.interpolate_poly_map is originals["interp"]
    assert epw.local_sextic is originals["sextic"]
    assert epw.poly.MultiPoly.__dict__["__rmul__"] is originals["mul"]
    assert lattices.NAMED_LATTICES == originals["ctors"]
    assert cli.VERBS == originals["verbs"]


def test_span_times_are_divided_by_the_host_factor_of_their_operation():
    ph = run.Phase()
    ph.starts, ph.factors = [10.0, 20.0], [2.0, 1.5]
    assert [ph.factor_at(t) for t in (5.0, 10.0, 19.9, 20.0, 30.0)] == [2.0, 2.0, 2.0, 1.5, 1.5]
    rec = Recorder()
    outer = rec.enter(rec.name_id("outer"))
    rec.leave(rec.enter(rec.name_id("inner")))
    rec.leave(outer)
    rec.leave(rec.enter(rec.name_id("late")))
    # outer [11, 15] holds inner [12, 14]; late [21, 24] runs in the next operation
    rec.span_start[:] = array("d", [11.0, 12.0, 21.0])
    rec.span_end[:] = array("d", [15.0, 14.0, 24.0])
    summary = rec.summary(ph.factor_at)
    assert summary["outer"] == {"calls": 1, "total_s": 2.0, "self_s": 1.0}
    assert summary["inner"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    assert summary["late"] == {"calls": 1, "total_s": 2.0, "self_s": 2.0}


def test_local_sextic_counts(tmp_path):
    path, gram = _frame(tmp_path, 0)
    code, out, rec, summary = _traced(["local-sextic", "--frame", path, "--point", workloads.POINT])
    assert code == 0
    assert summary["polymat.interpolate_poly_map"]["calls"] == 1
    assert rec.points == 3003
    assert summary["zlinalg.int_det"]["calls"] == 3003
    assert summary["polymat.interpolate_poly_map.oracle"]["calls"] == 3003
    assert summary["cli.run"]["calls"] == 1
    # useful points: C(6 + 5, 5) = 462 for a degree-6 result
    assert rec.useful_points == 462
    check = workloads._check_sextic(gram, workloads._off_grid_points(random.Random(1), 2))
    assert check(code, out)
    f_line = next(l for l in out.splitlines() if l.startswith("f = "))
    tampered = out.replace(f_line, f_line + " + t5^6")
    assert not check(code, tampered)


def test_double_cover_k2_counts(tmp_path):
    path, gram = _frame(tmp_path, 2)
    code, out, rec, summary = _traced(["double-cover", "--frame", path, "--point", workloads.POINT])
    assert code == 0
    assert rec.points == 2002
    assert summary["zlinalg.bareiss_solve"]["calls"] == 2002
    check = workloads._check_cover(gram, 2, workloads._off_grid_points(random.Random(2), 2))
    assert check(code, out)
    g2 = next(l for l in out.splitlines() if l.startswith("g2 = "))
    assert not check(code, out.replace(g2, g2 + " + 1"))


def test_lattice_checks_can_fail():
    lam = workloads.LambdaData(epw)
    rng = random.Random(3)
    for _ in range(5):
        v = workloads.sample_root(lam, rng)
        code, out = cli.run(["classify-root", "--lattice", "lambda", "--vector=" + ",".join(map(str, v))])
        check = workloads._check_root(lam, v)
        assert check(code, out)
        tag = out.splitlines()[-1]
        other = "tag: S4" if tag != "tag: S4" else "tag: S2_STAR"
        assert not check(code, out.replace(tag, other))
    code, out = cli.run(["overlattices", "--lattice", "gamma-tilde"])
    assert workloads._check_overlattices(code, out)
    assert not workloads._check_overlattices(code, out.replace("index=2", "index=4"))


def _run(cwd, *args):
    cmd = [sys.executable, os.path.join("perfbench", "run.py")] + list(args)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_result_names_match_benchmark_json():
    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(root, "--workload", "lattices", "--seed", "7", "--seconds", "1",
                    "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert {m["name"]: m["unit"] for m in spec[key]} == \
            {name: m["unit"] for name, m in result["metrics"].items()}


def test_refuses_to_run_without_the_program(tmp_path):
    root = os.path.dirname(HERE)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    proc = _run(str(tmp_path), "--workload", "sextic", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
