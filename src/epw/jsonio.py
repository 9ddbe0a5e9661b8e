"""JSON wire formats.

Every rational is serialized as a string ("p" or "p/q"); no floats
anywhere.  Serialization is canonical (sorted keys, fixed row order) so
parse -> serialize -> parse is a fixed point byte for byte.
"""

import json
from fractions import Fraction

from . import lattices, wedge
from .poly import poly_from_json, poly_to_json


class SchemaError(ValueError):
    """A document does not match its schema; the message names the field."""


def _fr(x) -> str:
    return str(Fraction(x))


def _parse_fr(s, where):
    if not isinstance(s, (str, int)):
        raise SchemaError("%s: expected a rational string, got %r" % (where, s))
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise SchemaError("%s: expected a rational string, got %r" % (where, s)) from None


def frame_to_json(a: wedge.LagrangianFrame) -> dict:
    return {
        "kind": "lagrangian_frame",
        "matrix": [[_fr(x) for x in row] for row in a.matrix],
    }


def frame_from_json(obj) -> wedge.LagrangianFrame:
    if not isinstance(obj, dict) or obj.get("kind") != "lagrangian_frame":
        raise SchemaError("kind: expected 'lagrangian_frame'")
    m = obj.get("matrix")
    if not isinstance(m, list) or len(m) != 10 or any(len(r) != 20 for r in m):
        raise SchemaError("matrix: expected 10 rows of 20 entries")
    rows = [[_parse_fr(x, "matrix[%d][%d]" % (i, j)) for j, x in enumerate(r)]
            for i, r in enumerate(m)]
    try:
        return wedge.LagrangianFrame(rows)
    except ValueError as e:
        raise SchemaError("matrix: %s" % e) from None


def subspace3_to_json(w: wedge.Subspace3) -> dict:
    return {"kind": "subspace3", "rows": [[_fr(x) for x in r] for r in w.rows]}


def subspace3_from_json(obj) -> wedge.Subspace3:
    if not isinstance(obj, dict) or obj.get("kind") != "subspace3":
        raise SchemaError("kind: expected 'subspace3'")
    rows = obj.get("rows")
    if not isinstance(rows, list) or any(len(r) != 6 for r in rows):
        raise SchemaError("rows: expected rows of 6 entries")
    rs = [[_parse_fr(x, "rows[%d][%d]" % (i, j)) for j, x in enumerate(r)]
          for i, r in enumerate(rows)]
    try:
        return wedge.Subspace3(rs)
    except ValueError as e:
        raise SchemaError("rows: %s" % e) from None


def vec_to_json(v) -> dict:
    return {"kind": "vector", "coords": [_fr(x) for x in v]}


def vec_from_json(obj):
    if not isinstance(obj, dict) or obj.get("kind") != "vector":
        raise SchemaError("kind: expected 'vector'")
    return [_parse_fr(x, "coords[%d]" % i) for i, x in enumerate(obj.get("coords", []))]


def lattice_to_json(l: lattices.EvenLattice) -> dict:
    out = {
        "kind": "even_lattice",
        "rank": l.rank,
        "gram": [[int(x) for x in row] for row in l.gram],
    }
    if l.named:
        out["named"] = {k: list(v) for k, v in sorted(l.named.items())}
    if l.u2_pairs:
        out["u2_pairs"] = [[list(a), list(b)] for a, b in l.u2_pairs]
    return out


def lattice_from_json(obj) -> lattices.EvenLattice:
    if not isinstance(obj, dict) or obj.get("kind") != "even_lattice":
        raise SchemaError("kind: expected 'even_lattice'")
    gram = obj.get("gram")
    if not isinstance(gram, list):
        raise SchemaError("gram: expected a matrix")
    rank = obj.get("rank")
    if rank != len(gram):
        raise SchemaError("rank: does not match the Gram matrix size")
    for i, row in enumerate(gram):
        if len(row) != len(gram):
            raise SchemaError("gram[%d]: expected %d entries" % (i, len(gram)))
        for j, x in enumerate(row):
            if not isinstance(x, int):
                raise SchemaError("gram[%d][%d]: expected an integer" % (i, j))
    try:
        return lattices.EvenLattice(
            gram, named=obj.get("named"), u2_pairs=obj.get("u2_pairs"),
        )
    except ValueError as e:
        raise SchemaError("gram: %s" % e) from None


def hilb_class_to_json(c) -> dict:
    return {"kind": "hilb_class", "a": list(c.a), "m": c.m}


def hilb_class_from_json(obj):
    from .hilbert_square import HilbClass

    if not isinstance(obj, dict) or obj.get("kind") != "hilb_class":
        raise SchemaError("kind: expected 'hilb_class'")
    a = obj.get("a")
    if not isinstance(a, list) or len(a) != 22:
        raise SchemaError("a: expected 22 integer coordinates")
    return HilbClass(a, obj.get("m", 0))


def polynomial_from_json(obj):
    try:
        return poly_from_json(obj)
    except (ValueError, KeyError, TypeError) as e:
        raise SchemaError("polynomial: %s" % e) from None


_LOADERS = {
    "lagrangian_frame": frame_from_json,
    "subspace3": subspace3_from_json,
    "vector": vec_from_json,
    "even_lattice": lattice_from_json,
    "polynomial": polynomial_from_json,
    "hilb_class": hilb_class_from_json,
}

_DUMPERS = {
    "lagrangian_frame": frame_to_json,
    "subspace3": subspace3_to_json,
    "even_lattice": lattice_to_json,
    "polynomial": poly_to_json,
}


def dumps(obj_json: dict) -> str:
    return json.dumps(obj_json, sort_keys=True, indent=1) + "\n"


def load_document(text: str):
    """Parse any known document: returns (kind, value)."""
    obj = json.loads(text)
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError("kind: missing")
    kind = obj["kind"]
    if kind not in _LOADERS:
        raise SchemaError("kind: unknown document kind %r" % kind)
    return kind, _LOADERS[kind](obj)


def dump_value(kind: str, value) -> str:
    if kind == "vector":
        return dumps(vec_to_json(value))
    if kind == "hilb_class":
        return dumps(hilb_class_to_json(value))
    return dumps(_DUMPERS[kind](value))


def io_roundtrip(text: str) -> bool:
    """parse -> serialize -> parse is a fixed point (values and bytes)."""
    kind, value = load_document(text)
    out = dump_value(kind, value)
    kind2, value2 = load_document(out)
    if kind2 != kind:
        return False
    out2 = dump_value(kind2, value2)
    if out != out2:
        return False
    if kind == "lagrangian_frame":
        return value2 == value
    if kind in ("subspace3",):
        return value2 == value
    if kind == "polynomial":
        return value2 == value
    if kind == "even_lattice":
        return value2.gram == value.gram and value2.named == value.named
    if kind == "vector":
        return value2 == value
    if kind == "hilb_class":
        return value2.a == value.a and value2.m == value.m
    return True
