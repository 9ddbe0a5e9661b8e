"""Wire formats: canonical serialization and round trips."""

import json
import random

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
