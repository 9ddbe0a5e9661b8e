"""Wire formats: canonical serialization and round trips."""

import json
import random
import re
import time
from fractions import Fraction

import pytest

from epw import jsonio
from epw.jsonio import SchemaError, io_roundtrip, load_document, dump_value
from epw.lattices import lambda_lattice, gamma_tilde
from epw.poly import poly_from_text
from epw.wedge import Subspace3, random_graph_lagrangian, _unit


def test_frame_roundtrip():
    rng = random.Random(1)
    frame, _ = random_graph_lagrangian(rng, corank=1)
    text = dump_value("lagrangian_frame", frame)
    assert io_roundtrip(text)
    kind, value = load_document(text)
    assert kind == "lagrangian_frame"
    assert value == frame


def test_lattice_roundtrip_with_names():
    lam = lambda_lattice()
    text = dump_value("even_lattice", lam)
    assert io_roundtrip(text)
    _, value = load_document(text)
    assert value.gram == lam.gram
    assert value.named == lam.named
    assert value.u2_pairs == lam.u2_pairs


def test_polynomial_roundtrip():
    f = poly_from_text("3/4*x^2*y - y + 5", ("x", "y"))
    text = dump_value("polynomial", f)
    assert io_roundtrip(text)
    _, value = load_document(text)
    assert value == f


@pytest.mark.parametrize("doc, where", [
    ({"variables": "xy", "terms": []}, "variables"),
    ({"variables": ["x", 1], "terms": []}, "variables"),
    ({"variables": ["x", "y"], "terms": {}}, "terms"),
    ({"variables": ["x", "y"], "terms": [[1, 0]]}, "terms[0]"),
    ({"variables": ["x", "y"], "terms": [{"coeff": "1"}]}, "terms[0].exponents"),
    ({"variables": ["x", "y"], "terms": [{"exponents": [1, 0]}]}, "terms[0].coeff"),
    ({"variables": ["x", "y"], "terms": [{"exponents": [1, 0], "coeff": "1"},
                                         {"exponents": [1, 0], "coeff": "2"}]},
     "terms[1].exponents"),
    ({"variables": ["x", "y"], "terms": [{"exponents": [-1, 0], "coeff": "1"}]}, "polynomial"),
    ({"variables": ["x", "x"], "terms": []}, "polynomial"),
])
def test_malformed_polynomial_names_the_field(doc, where):
    with pytest.raises(SchemaError, match="^" + re.escape(where) + ": "):
        load_document(json.dumps(dict(doc, kind="polynomial")))


def test_subspace_and_vector_roundtrip():
    w = Subspace3([_unit(0), _unit(1), _unit(2)])
    assert io_roundtrip(dump_value("subspace3", w))
    assert io_roundtrip(dump_value("vector", [1, 2, "3/4", 0, 0, 1]))


def test_non_symmetric_gram_rejected():
    bad = {"kind": "even_lattice", "rank": 2, "gram": [[0, 1], [2, 0]]}
    with pytest.raises(SchemaError):
        load_document(json.dumps(bad))


def test_odd_diagonal_rejected():
    bad = {"kind": "even_lattice", "rank": 1, "gram": [[3]]}
    with pytest.raises(SchemaError):
        load_document(json.dumps(bad))


def test_bad_frame_shape_reports_field():
    bad = {"kind": "lagrangian_frame", "matrix": [["1"] * 20] * 9}
    with pytest.raises(SchemaError) as err:
        load_document(json.dumps(bad))
    assert "matrix" in str(err.value)


def test_non_lagrangian_matrix_rejected():
    # rows span a 10-space containing both e123 and e456, which pair to 1
    rows = [["0"] * 20 for _ in range(10)]
    for i in range(9):
        rows[i][i] = "1"
    rows[9][19] = "1"
    bad = {"kind": "lagrangian_frame", "matrix": rows}
    with pytest.raises(SchemaError):
        load_document(json.dumps(bad))


def test_unknown_kind_rejected():
    with pytest.raises(SchemaError):
        load_document(json.dumps({"kind": "mystery"}))


def test_float_contamination_rejected():
    bad = {"kind": "vector", "coords": [0.5]}
    with pytest.raises(SchemaError):
        load_document(json.dumps(bad))


def test_serialization_is_byte_stable():
    lam = gamma_tilde()
    t1 = dump_value("even_lattice", lam)
    t2 = dump_value("even_lattice", gamma_tilde())
    assert t1 == t2


U = {"kind": "even_lattice", "rank": 2, "gram": [[0, 1], [1, 0]]}


@pytest.mark.parametrize("field, value", [
    ("u2_pairs", 5),
    ("u2_pairs", [[[1, 0]]]),
    ("u2_pairs", [[[1, 0], [0]]]),
    ("u2_pairs", [[[1, 0], "01"]]),
    ("u2_pairs", [[[1, 0], [0, True]]]),
    ("named", [[1, 0]]),
    ("named", {"e": [1]}),
    ("named", {"e": [1, "0"]}),
    ("named", {"e": [False, 1]}),
    ("gram", [[0, 1], 5]),
    ("gram", [[0, 1], [True, 0]]),
    ("gram", [[0, 1], [1, 0.0]]),
    ("rank", True),
])
def test_malformed_lattice_rejected(field, value):
    bad = dict(U, **{field: value})
    with pytest.raises(SchemaError) as err:
        load_document(json.dumps(bad))
    assert field in str(err.value)


@pytest.mark.parametrize("text, value", [
    ("0", 0), ("-0", 0), ("17", 17), ("-3/4", Fraction(-3, 4)), ("6/4", Fraction(3, 2)),
    ("007/010", Fraction(7, 10)), ("1" + "0" * 40, 10 ** 40),
])
def test_parse_rational_reads_digits_and_digits_over_digits(text, value):
    assert jsonio.parse_rational(text) == value


@pytest.mark.parametrize("text", [
    "1e10000000", "1.5", "1E3", "+1", " 1", "1 ", "1\n", "1/0", "-1/0", "1/-2", "1/+2",
    "", "-", "/2", "1/", "1//2", "1_000", "0x10", "inf", "nan", "½", "١", 1, 1.5, None, True,
])
def test_parse_rational_refuses_every_other_form(text):
    with pytest.raises(ValueError):
        jsonio.parse_rational(text)


@pytest.mark.parametrize("coord", ["1e10000000", "1.5", "1/0", "+2", 1.5, True])
def test_vector_coordinate_outside_the_rational_form_is_a_schema_error(coord):
    start = time.perf_counter()
    with pytest.raises(SchemaError, match=r"^coords\[1\]: "):
        load_document(json.dumps({"kind": "vector", "coords": ["1", coord]}))
    assert time.perf_counter() - start < 1.0


def test_json_integer_coordinates_stay_rationals():
    _, value = load_document(json.dumps({"kind": "vector", "coords": [3, "-1/2"]}))
    assert value == [3, Fraction(-1, 2)]
