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
    if isinstance(s, bool) or not isinstance(s, (str, int)):
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
    if not isinstance(m, list) or len(m) != 10 or any(
            not isinstance(r, list) or len(r) != 20 for r in m):
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
    if not isinstance(rows, list) or any(not isinstance(r, list) or len(r) != 6 for r in rows):
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
    coords = obj.get("coords", [])
    if not isinstance(coords, list):
        raise SchemaError("coords: expected a list of rationals")
    return [_parse_fr(x, "coords[%d]" % i) for i, x in enumerate(coords)]


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
    if not _is_int(rank) or rank != len(gram):
        raise SchemaError("rank: does not match the Gram matrix size")
    for i, row in enumerate(gram):
        _int_vector(row, rank, "gram[%d]" % i)
    named = obj.get("named")
    if named is None:
        named = {}
    if not isinstance(named, dict):
        raise SchemaError("named: expected an object of integer vectors")
    for k, v in named.items():
        _int_vector(v, rank, "named[%r]" % k)
    pairs = obj.get("u2_pairs")
    if pairs is None:
        pairs = []
    if not isinstance(pairs, list):
        raise SchemaError("u2_pairs: expected a list of pairs")
    for i, pair in enumerate(pairs):
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError("u2_pairs[%d]: expected a pair of vectors" % i)
        for j, v in enumerate(pair):
            _int_vector(v, rank, "u2_pairs[%d][%d]" % (i, j))
    try:
        return lattices.EvenLattice(gram, named=named, u2_pairs=pairs)
    except ValueError as e:
        raise SchemaError("gram: %s" % e) from None


def hilb_class_to_json(c) -> dict:
    return {"kind": "hilb_class", "a": list(c.a), "m": c.m}


def hilb_class_from_json(obj):
    from .hilbert_square import HilbClass

    if not isinstance(obj, dict) or obj.get("kind") != "hilb_class":
        raise SchemaError("kind: expected 'hilb_class'")
    a = obj.get("a")
    if not isinstance(a, list) or len(a) != 22 or not all(map(_is_int, a)):
        raise SchemaError("a: expected 22 integer coordinates")
    m = obj.get("m", 0)
    if not _is_int(m):
        raise SchemaError("m: expected an integer, got %r" % (m,))
    return HilbClass(a, m)


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _int_vector(v, length, where):
    if not isinstance(v, list) or len(v) != length:
        raise SchemaError("%s: expected %d entries" % (where, length))
    for j, x in enumerate(v):
        if not _is_int(x):
            raise SchemaError("%s[%d]: expected an integer, got %r" % (where, j, x))


def polynomial_from_json(obj):
    try:
        return poly_from_json(obj)
    except (ValueError, KeyError, TypeError, OverflowError) as e:
        # OverflowError: a JSON Infinity as an exponent or coefficient
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
    "vector": vec_to_json,
    "even_lattice": lattice_to_json,
    "polynomial": poly_to_json,
    "hilb_class": hilb_class_to_json,
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
    if kind == "even_lattice":
        return value2.gram == value.gram and value2.named == value.named
    if kind == "hilb_class":
        return value2.full() == value.full()
    return value2 == value
