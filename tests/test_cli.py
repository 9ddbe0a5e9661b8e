"""CLI: verbs, exit codes, determinism, file I/O."""

import copy
import json
import random
import subprocess
import sys
import time

from hypothesis import HealthCheck, given, settings, strategies as st
import pytest

from epw import cli, jsonio
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
    for vector in ("x*e1", "1,a", "", " ", "+"):
        code, out = run(["classify-root", "--vector", vector])
        assert code == 2
        assert out.startswith("error: ")


@pytest.mark.parametrize("verb", ["degeneracy", "local-sextic", "double-cover"])
def test_zero_point_usage_error(frame_file, verb):
    code, out = run([verb, "--frame", frame_file, "--point", "0,0,0,0,0,0"])
    assert code == 2
    assert out.startswith("error: ")


@pytest.mark.parametrize("point", ["1e10000000,0,0,0,0,1", "1.5,0,0,0,0,1",
                                   "1/0,0,0,0,0,1", "+1,0,0,0,0,0", "1,0,0,0,0,0x1"])
def test_point_outside_the_rational_form_usage_error(frame_file, point):
    start = time.perf_counter()
    code, out = run(["degeneracy", "--frame", frame_file, "--point", point])
    assert (code, out) == (2, "error: bad rational in point %r" % point)
    assert time.perf_counter() - start < 1.0


def test_sextic_sing_point_outside_the_rational_form_usage_error(tmp_path):
    path = tmp_path / "sextic.json"
    f = poly_from_text("x^6 - y^3*z^3", ("x", "y", "z"))
    path.write_text(jsonio.dump_value("polynomial", f))
    for point in ("1e10000000,0,1", "0,0,1.5"):
        code, out = run(["sextic-sing", "--poly", str(path), "--point", point])
        assert code == 2 and out.startswith("error: ")


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


@pytest.mark.parametrize("field", ["exponents", "coeff"])
def test_sextic_sing_infinite_term_usage_error(tmp_path, field):
    doc = poly_to_json(poly_from_text("x^6 - y^3*z^3", ("x", "y", "z")))
    doc["terms"][0][field] = [float("inf"), 0, 0] if field == "exponents" else float("inf")
    path = tmp_path / "infinite.json"
    path.write_text(jsonio.dumps(doc))
    code, out = run(["sextic-sing", "--poly", str(path), "--point", "0,0,1"])
    assert code == 2
    assert out.startswith("error: ")


SEXTIC_DOC = poly_to_json(poly_from_text("x^6 - y^3*z^3", ("x", "y", "z")))


@pytest.mark.parametrize("field, value, where", [
    ("exponents", 6.0, "terms[0].exponents[0]"), ("exponents", "6", "terms[0].exponents[0]"),
    ("exponents", True, "terms[0].exponents[0]"), ("coeff", 1.5, "terms[0].coeff"),
    ("coeff", True, "terms[0].coeff"),
])
def test_sextic_sing_non_integer_exponent_or_non_rational_coeff(tmp_path, field, value, where):
    # the 6 of x^6 or the coefficient 1 of x^6 replaced
    doc = copy.deepcopy(SEXTIC_DOC)
    if field == "exponents":
        doc["terms"][0]["exponents"][0] = value
    else:
        doc["terms"][0]["coeff"] = value
    path = tmp_path / "sextic.json"
    path.write_text(json.dumps(doc))
    code, out = run(["sextic-sing", "--poly", str(path), "--point", "0,0,1"])
    assert code == 2
    assert out.startswith("error: ")
    assert "%s: expected" % where in out


@pytest.mark.parametrize("field, value", [
    ("m", "x"), ("m", 1.5), ("m", True), ("a", "0"), ("a", 0.0), ("a", False),
])
def test_sextic_sing_bad_hilb_class_usage_error(tmp_path, field, value):
    doc = {"kind": "hilb_class", "a": [0] * 22, "m": 0}
    if field == "m":
        doc["m"] = value
    else:
        doc["a"][3] = value
    path = tmp_path / "hilb.json"
    path.write_text(json.dumps(doc))
    code, out = run(["sextic-sing", "--poly", str(path), "--point", "1,0,0"])
    assert code == 2
    assert out.startswith("error: ")
    assert "%s: expected" % field in out


@pytest.mark.parametrize("count", ["0", "-1"])
def test_varquad_check_nonpositive_count_usage_error(count):
    code, out = run(["varquad-check", "--count", count])
    assert code == 2
    assert out.startswith("error: ")
    assert "PASS" not in out


@pytest.mark.parametrize("extra", [
    {"u2_pairs": 5},
    {"named": {"e": [1, True]}},
    {"gram": [[0, 1], [True, 0]]},
])
def test_disc_group_malformed_lattice_json_usage_error(tmp_path, extra):
    doc = dict({"kind": "even_lattice", "rank": 2, "gram": [[0, 1], [1, 0]]}, **extra)
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps(doc))
    code, out = run(["disc-group", "--lattice-json", str(path)])
    assert code == 2
    assert out.startswith("error: ")


@pytest.mark.parametrize("verb", ["disc-group", "overlattices"])
def test_degenerate_lattice_json_usage_error(tmp_path, verb):
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps({"kind": "even_lattice", "rank": 2, "gram": [[0, 0], [0, 0]]}))
    code, out = run([verb, "--lattice-json", str(path)])
    assert code == 2
    assert out.startswith("error: ") and "degenerate" in out


@pytest.mark.parametrize("verb", ["disc-group", "classify-root", "overlattices"])
@pytest.mark.parametrize("flag,message", [("--lattice", "unknown lattice ''"),
                                          ("--lattice-json", "cannot read")])
def test_empty_lattice_argument_usage_error(verb, flag, message):
    """An empty name or path is refused, not read as the verb's default."""
    extra = ["--vector", "e1"] if verb == "classify-root" else []
    code, out = run([verb, flag, ""] + extra)
    assert code == 2
    assert out.startswith("error: " + message)


@pytest.mark.parametrize("verb,extra", [("disc-group", ["--format", "json"]),
                                        ("overlattices", [])])
def test_too_large_discriminant_group_usage_error(tmp_path, verb, extra):
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps({"kind": "even_lattice", "rank": 2, "gram": [[2, 0], [0, 8194]]}))
    code, out = run([verb, "--lattice-json", str(path)] + extra)
    assert (code, out) == (2, "error: discriminant group too large to enumerate")


def test_double_cover_beyond_kernel_dimension_three_usage_error(tmp_path):
    frame, _ = random_graph_lagrangian(random.Random(3), corank=4)
    path = tmp_path / "frame.json"
    path.write_text(jsonio.dump_value("lagrangian_frame", frame))
    code, out = run(["double-cover", "--frame", str(path), "--point", "1,0,0,0,0,0"])
    assert code == 2
    assert out == "error: double cover model implemented for kernel dimension <= 3"


@pytest.mark.parametrize("bound", [str(cli.PELL_BOUND_MAX + 1), str(10 ** 20)])
def test_pell_bound_above_the_cap_usage_error(monkeypatch, bound):
    def no_work(bound):
        raise AssertionError("pell classes computed for a rejected bound")

    monkeypatch.setattr(cli.hs, "pell_square_two_classes", no_work)
    code, out = run(["pell", "--bound", bound])
    assert (code, out) == (2, "error: --bound must be between 0 and 1000")


@pytest.mark.parametrize("lattice,vector", [("u", "1,-1"), ("e8-minus", "1,0,0,0,0,0,0,0")])
def test_classify_root_on_an_unpolarized_lattice_usage_error(lattice, vector):
    code, out = run(["classify-root", "--lattice", lattice, "--vector", vector])
    assert code == 2
    assert out.startswith("error: ") and "e1" in out


@pytest.mark.parametrize("flag,doc", [
    ("--frame", {"kind": "lagrangian_frame", "matrix": [5] * 10}),
    ("--frame", {"kind": "lagrangian_frame", "matrix": [[i == j for j in range(20)]
                                                        for i in range(10)]}),
    ("--frame", {"kind": "vector", "coords": 5}),
    ("--plane", {"kind": "subspace3", "rows": [5, 6, 7]}),
    ("--plane", {"kind": "subspace3", "rows": [[i == j for j in range(6)] for i in range(3)]}),
])
def test_strata_malformed_wedge_json_usage_error(plane_frame_file, tmp_path, flag, doc):
    """Rows that are not lists, and JSON booleans as rationals, are schema errors."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    fpath, wpath = plane_frame_file
    files = {"--frame": fpath, "--plane": wpath, flag: str(path)}
    code, out = run(["strata", "--frame", files["--frame"], "--plane", files["--plane"]])
    assert code == 2
    assert out.startswith("error: ")


# the three verbs that read a document through cli._load, with "{}" for its path
DOCUMENT_VERBS = [
    ["local-sextic", "--frame", "{}", "--point", "1,0,0,0,0,0"],
    ["disc-group", "--lattice-json", "{}"],
    ["sextic-sing", "--poly", "{}", "--point", "0,0,1"],
]


def run_on_document(tmp_path, argv, data):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    return run([str(path) if a == "{}" else a for a in argv])


@pytest.mark.parametrize("argv", DOCUMENT_VERBS)
def test_a_document_that_is_not_utf8_usage_error(tmp_path, argv):
    code, out = run_on_document(tmp_path, argv, b'\xff\xfe{"kind": "even_lattice"}')
    assert code == 2
    assert out.startswith("error: ") and "utf-8" in out


@pytest.mark.parametrize("argv", DOCUMENT_VERBS)
def test_an_integer_literal_of_5000_digits_usage_error(tmp_path, argv):
    """Python refuses to convert an integer string of more than 4300 digits
    (a ValueError); where it does not, the document is off the schema."""
    code, out = run_on_document(tmp_path, argv, b"[" + b"9" * 5000 + b"]")
    assert code == 2
    assert out.startswith("error: ")


@pytest.mark.parametrize("argv", DOCUMENT_VERBS)
def test_arrays_nested_100000_deep_usage_error(tmp_path, argv):
    code, out = run_on_document(tmp_path, argv, b"[" * 100000 + b"]" * 100000)
    assert code == 2
    assert out.startswith("error: ") and "recursion" in out


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


def test_cli_subprocess_deterministic():
    cmd = [sys.executable, "-m", "epw", "pell", "--bound", "3"]
    a = subprocess.run(cmd, capture_output=True, text=True)
    b = subprocess.run(cmd, capture_output=True, text=True)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


# -- any argv, any document: exit 0, 1 or 2 and no traceback ------------------

FUZZ_KINDS = ("lagrangian_frame", "subspace3", "vector", "even_lattice", "polynomial",
              "hilb_class", "nope")
FUZZ_FIELDS = ("matrix", "rows", "coords", "rank", "gram", "named", "u2_pairs",
               "variables", "terms", "a", "m")
json_leaves = (st.none() | st.booleans() | st.integers(-3, 3) | st.floats()
               | st.sampled_from(["1/2", "1/0", "x", ""]))
json_values = st.recursive(json_leaves, lambda inner: st.lists(inner, max_size=4)
                           | st.dictionaries(st.sampled_from(FUZZ_FIELDS), inner, max_size=3),
                           max_leaves=12)
malformed_docs = st.one_of(
    st.sampled_from(["", "{", "[]", "null", '{"kind": 5}']),
    st.builds(lambda kind, body: json.dumps(dict(body, kind=kind)), st.sampled_from(FUZZ_KINDS),
              st.dictionaries(st.sampled_from(FUZZ_FIELDS), json_values, max_size=3)),
)
# Exponents are JSON integers; coefficients are rational strings or JSON integers, so
# a numeric string, a negative or a huge integer is a well-formed coefficient.
BAD_EXPONENTS = st.sampled_from([6.0, "6", True, -1, 10 ** 30, [6], None])
BAD_COEFFS = st.sampled_from([1.5, -1.0, 1e300, "1/0", "x", True, ["1"], None])


@st.composite
def perturbed_sextic_docs(draw):
    """The well-formed sextic document with one exponent replaced by a float,
    numeric string, bool, negative, huge or nested value, or one coefficient
    by a float, bad string, bool or nested value."""
    doc = copy.deepcopy(SEXTIC_DOC)
    term = doc["terms"][draw(st.integers(0, len(doc["terms"]) - 1))]
    if draw(st.booleans()):
        term["exponents"][draw(st.integers(0, 2))] = draw(BAD_EXPONENTS)
    else:
        term["coeff"] = draw(BAD_COEFFS)
    return json.dumps(doc)


# "@name" stands for a file of the fuzz_files fixture; "@doc" for the drawn document.
# Hypothesis favours the first choice of a sampled_from or one_of, so the inputs
# at a model's limits come first: a corank-4 frame, its center, a huge group.
FRAMES = ("@frame-corank4", "@frame-corank1", "@frame-corank0", "@doc", "/nonexistent.json")
POINTS = st.one_of(
    st.sampled_from(["1,0,0,0,0,0", "0,0,0,0,0,1", "0,0,0,0,0,0", "1,1", "1/0,0,0,0,0,1"]),
    st.lists(st.integers(-2, 2), min_size=6, max_size=6).map(lambda v: ",".join(map(str, v))),
)
LATTICE_FLAGS = st.one_of(
    st.tuples(st.just("--lattice-json"), st.sampled_from(["@lattice-big", "@lattice-u", "@doc"])),
    st.tuples(st.just("--lattice"), st.sampled_from(sorted(cli.lattices.NAMED_LATTICES) + ["x"])),
)
FRAME_AT_POINT = st.tuples(st.just("--frame"), st.sampled_from(FRAMES), st.just("--point"), POINTS)
VERB_FLAGS = {
    "local-sextic": FRAME_AT_POINT,
    "double-cover": FRAME_AT_POINT,
    "degeneracy": FRAME_AT_POINT,
    "strata": st.tuples(st.just("--frame"), st.sampled_from(FRAMES),
                        st.just("--plane"), st.sampled_from(["@plane", "@doc"])),
    "sextic-sing": st.tuples(st.just("--poly"), st.sampled_from(["@sextic", "@doc"]),
                             st.just("--point"), st.sampled_from(["0,0,1", "1,1,1", "0,0,0", "1,2"])),
    "varquad-check": st.tuples(st.just("--count"), st.integers(-1, 3).map(str)),
    "disc-group": LATTICE_FLAGS,
    "overlattices": LATTICE_FLAGS,
    "classify-root": st.tuples(LATTICE_FLAGS, st.just("--vector"),
                               st.sampled_from(["e1+e2", "2*e1-e2", "v3", "e9", "1,-1", "x*e1"])),
    "pell": st.tuples(st.just("--bound"), st.integers(-2, 1200).map(str)),
    "hilb-check": st.just(()),
}
FORMATTED = set(VERB_FLAGS) - {"varquad-check", "hilb-check"}


def _flatten(flags):
    for x in flags:
        yield from (_flatten(x) if isinstance(x, tuple) else [x])


@st.composite
def cli_inputs(draw):
    verb = draw(st.sampled_from(sorted(VERB_FLAGS)))
    argv = [verb, "--seed", str(draw(st.integers(-2, 3)))] + list(_flatten(draw(VERB_FLAGS[verb])))
    if verb in FORMATTED and draw(st.booleans()):
        argv += ["--format", "json"]
    return argv, draw(malformed_docs)


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    docs = {"plane": jsonio.dump_value("subspace3", Subspace3([_unit(0), _unit(1), _unit(2)])),
            "sextic": jsonio.dump_value("polynomial", poly_from_text("x^6 - y^3*z^3", ("x", "y", "z"))),
            "lattice-u": json.dumps({"kind": "even_lattice", "rank": 2, "gram": [[0, 1], [1, 0]]}),
            "lattice-big": json.dumps({"kind": "even_lattice", "rank": 2,
                                       "gram": [[2, 0], [0, 8194]]})}
    for k in (0, 1, 4):
        frame, _ = random_graph_lagrangian(random.Random(3), corank=k)
        docs["frame-corank%d" % k] = jsonio.dump_value("lagrangian_frame", frame)
    paths = {}
    for name, text in docs.items():
        paths["@" + name] = str(base / (name + ".json"))
        (base / (name + ".json")).write_text(text)
    paths["@doc"] = str(base / "doc.json")
    return paths


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(drawn=cli_inputs())
def test_cli_exit_codes_on_drawn_argv_and_documents(fuzz_files, drawn):
    argv, doc = drawn
    with open(fuzz_files["@doc"], "w") as fh:
        fh.write(doc)
    code, out = run([fuzz_files.get(a, a) for a in argv])
    assert code in (0, 1, 2)
    assert code != 2 or out == "" or out.startswith("error: ")
    # exit 1 comes only from a CheckFailure, which names the failure; a
    # bare SystemExit(1) would give exit 1 with no text
    assert code != 1 or out.strip(), argv


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(doc=perturbed_sextic_docs())
def test_sextic_sing_on_perturbed_documents_exits_2(fuzz_files, doc):
    with open(fuzz_files["@doc"], "w") as fh:
        fh.write(doc)
    code, out = run(["sextic-sing", "--poly", fuzz_files["@doc"], "--point", "0,0,1"])
    assert code == 2
    assert out.startswith("error: ")
