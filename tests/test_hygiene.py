"""Source hygiene of src/epw, checked on the syntax tree.

* Every name a module (other than __init__) imports is used in that
  module; an import line marked `# noqa: F401` is a deliberate binding
  and is exempt.
* Every module-level function whose name starts with one underscore is
  referenced somewhere in src/epw outside its own body.
* Every public module-level function and class is referenced somewhere
  in src/epw outside its own body, by a reference that can resolve to it:
  its bare name in its own module or in a module that imports it from
  there, or an attribute of a name bound to its module (`linalg.rank`
  after `from . import linalg`).  A method or attribute of the same name
  on another object is no reference.  An import in the package __init__ is
  not a reference, so a name that only the exports keep alive shows; the
  few kept for the tests alone are listed in TEST_ONLY, those kept for
  the package namespace alone in EXPORT_ONLY and those kept for the
  benchmark tracer alone in TRACED_ONLY, each with its reason.
* Every parameter of every function and lambda is read in its body
  (`self` and `cls` are exempt): a parameter that nothing reads is either
  dead or determined by another argument.
* Only poly.py builds a MultiPoly without its validating constructor:
  no other module calls __new__ or assigns the terms or vars of an
  object other than self (poly.MultiPoly._canonical is the one builder
  for canonical terms).
"""

import ast
from collections import Counter
from functools import cache
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "epw"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    """The syntax tree of the module at path, parsed once per session for
    each (path, text): a file rewritten under the same path is parsed
    again.  The checks only read the trees they share."""
    return _parsed(str(path), path.read_text())


@cache
def _parsed(name, text):
    return ast.parse(text, filename=name)


def _bound_names(node):
    for alias in node.names:
        yield alias.asname or alias.name.split(".")[0]


def unused_imports(path):
    source = path.read_text().splitlines()
    tree = _tree(path)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in source[node.lineno - 1:node.end_lineno]):
            continue
        out.extend("%s:%d %s" % (path.name, node.lineno, name)
                   for name in _bound_names(node) if name not in used)
    return out


def _references(tree, skip=None):
    """Names and attribute names referenced in tree, outside the node skip,
    each with the number of its references."""
    out = Counter()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        stack.extend(ast.iter_child_nodes(node))
    return out


def _bindings(tree):
    """The package imports of a module: (names, modules), with names
    mapping each local name of `from .m import f [as local]` to (m, f) and
    modules each local name of `from . import m [as local]` to m."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module:
                    names[local] = (node.module.split(".")[-1], alias.name)
                else:
                    modules[local] = alias.name
    return names, modules


def _resolved_references(tree, module):
    """Per top-level statement of the module `module`, the set of
    (module, name) its references can resolve to: a bare name to what the
    module imports under it, else to the module's own name; an attribute
    of a name bound to a module m to (m, attribute).  Other attributes
    resolve to nothing."""
    names, modules = _bindings(tree)
    out = []
    for stmt in tree.body:
        refs = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                refs.add(names.get(node.id, (module, node.id)))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                refs.add((modules[node.value.id], node.attr))
        out.append((stmt, refs))
    return out


def unreferenced_private_functions():
    """Private module-level functions with no reference outside their own
    body: all their references, counted over every module in one pass,
    are inside it."""
    trees = {path.name: _tree(path) for path in MODULES}
    everywhere = sum((_references(t) for t in trees.values()), Counter())
    out = []
    for name, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_") and not node.name.startswith("__")
                    and everywhere[node.name] == _references(node)[node.name]):
                out.append("%s:%d %s" % (name, node.lineno, node.name))
    return out


# Public names that nothing in src/epw references, each kept on purpose.
TEST_ONLY = {
    "lattices.py is_root_by_divisibility":
        "the reference is_root is tested against",
    "linalg.py mat_vec": "tests apply matrices to vectors with it",
    "wedge.py basis_trivector": "tests name basis trivectors with it",
    "wedge.py apply_gl6_frame": "tests transport frames by GL(6) with it",
    "linalg.py solve":
        "tests solve rational systems with it, the Fraction route to corank_on among them",
    "varquad.py ann_of_span":
        "the annihilator of a span as Fraction covectors; the corank-duality tests read it",
}
# Public names that only the package exports (epw/__init__.py) keep, each
# kept on purpose.
EXPORT_ONLY = {
    "wedge.py symplectic_pairing": "the wedge pairing of two trivectors, for users",
    "wedge.py is_lagrangian": "the Lagrangian test of a row space; demos/01 calls it",
    "wedge.py lagrangian_from_graph": "the graph Lagrangian on the standard chart, for users",
    "varquad.py phi_expansion":
        "all graded pieces of det(q_* + q); demos/03 calls it and perfbench traces it",
}

# Public names that only the benchmark tracer keeps, each kept on purpose:
# perfbench/tracer.py looks every span target up by name, so a deleted
# target breaks every traced run.  Each goes with its span target at the
# next change to the benchmark.
TRACED_ONLY = {
    "zlinalg.py int_adjugate":
        "span target zlinalg.int_adjugate; Pencil.bordered takes bordered minors by int_det",
    "linalg.py inverse":
        "span target linalg.inverse; the corank-duality draws carry P^-1 along with P",
}


def unreferenced_public_names(paths):
    """Public top-level functions and classes of the modules in paths that
    no module references outside their own definition, by a reference
    that can resolve to them (_resolved_references), as sorted "module
    name".  An import (the exports of a package __init__) is no reference."""
    trees = {path.name: _tree(path) for path in paths}
    refs = [item for name, tree in trees.items()
            for item in _resolved_references(tree, name[:-3])]
    out = []
    for name, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and not any((name[:-3], node.name) in r for stmt, r in refs
                                if stmt is not node)):
                out.append("%s %s" % (name, node.name))
    return sorted(out)


def unread_parameters(path):
    """Parameters of the functions and lambdas in path that their bodies
    never read, as "module:line function.parameter"."""
    out = []
    for node in ast.walk(_tree(path)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        out.extend("%s:%d %s.%s" % (path.name, node.lineno, name, p.arg) for p in params
                   if p.arg not in ("self", "cls") and p.arg not in read)
    return out


def _written(target):
    """The attribute nodes an assignment target writes through: the
    attribute itself and, for a subscript or attribute, what it reads
    from (not the subscript's index)."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for t in target.elts:
            yield from _written(t)
    elif isinstance(target, ast.Starred):
        yield from _written(target.value)
    elif isinstance(target, (ast.Attribute, ast.Subscript)):
        if isinstance(target, ast.Attribute):
            yield target
        yield from _written(target.value)


def polynomial_slot_writes(path):
    """Calls of __new__, and writes to x.terms or x.vars (or through them)
    with x not self, as "module:line text", in line order."""
    out = []
    for node in ast.walk(_tree(path)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "__new__"):
            out.append((node.lineno, ast.unparse(node.func)))
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                   else [])
        out.extend((a.lineno, ast.unparse(a)) for t in targets for a in _written(t)
                   if a.attr in ("terms", "vars")
                   and not (isinstance(a.value, ast.Name) and a.value.id == "self"))
    return ["%s:%d %s" % (path.name, line, text) for line, text in sorted(out)]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path) == []


def test_every_private_function_is_referenced():
    assert unreferenced_private_functions() == []


def test_every_public_function_has_a_caller():
    assert unreferenced_public_names(MODULES) == sorted(
        TEST_ONLY.keys() | EXPORT_ONLY.keys() | TRACED_ONLY.keys())


def test_every_parameter_is_read():
    assert [p for path in MODULES for p in unread_parameters(path)] == []


def test_only_poly_writes_polynomial_slots():
    assert [w for path in MODULES if path.name != "poly.py"
            for w in polynomial_slot_writes(path)] == []


def test_the_checks_see_what_they_look_for(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("import os\nfrom math import gcd, lcm\n"
                    "from sys import argv  # noqa: F401\n\n"
                    "def _loop(n):\n    return _loop(n - 1) + lcm(n, 2)\n\n"
                    "class C:\n    def at(self, n, k=0):\n        return n\n\n"
                    "twice = lambda x, y: 2 * x\n")
    assert unused_imports(path) == ["sample.py:1 os", "sample.py:2 gcd"]
    assert unread_parameters(path) == ["sample.py:9 at.k", "sample.py:12 <lambda>.y"]
    tree = _tree(path)
    fn = tree.body[3]
    assert "_loop" not in _references(tree, skip=fn)
    assert "_loop" in _references(tree)
    init = tmp_path / "__init__.py"
    init.write_text("from .sample import C\n")
    lonely = tmp_path / "lonely.py"
    lonely.write_text("def in_rowspace(m, v):\n    return in_rowspace(m, v)\n\n"
                      "class Kept:\n    pass\n\ndef caller():\n    return Kept\n\n"
                      "def inverse(m):\n    return m\n")
    # C is exported and referenced nowhere else, so it shows
    assert unreferenced_public_names([init, path, lonely]) == [
        "lonely.py caller", "lonely.py in_rowspace", "lonely.py inverse", "sample.py C"]
    # a method of the same name is no reference; the module attribute and
    # an imported name under another name are
    user = tmp_path / "user.py"
    user.write_text("from . import lonely as lone\nfrom .lonely import in_rowspace as inside\n\n"
                    "def use(z):\n    return z.inverse(), lone.caller, inside\n")
    assert unreferenced_public_names([init, path, lonely, user]) == [
        "lonely.py inverse", "sample.py C", "user.py use"]
    path.write_text("class D:\n    def __init__(self, v):\n        self.vars = v\n\n"
                    "def build(v, t):\n    out = MultiPoly.__new__(MultiPoly)\n"
                    "    out.vars, out.terms = v, t\n    out.terms[()] = 1\n"
                    "    seen = {}\n    seen[out.vars[0]] = 1\n    return out\n")
    assert polynomial_slot_writes(path) == [
        "sample.py:6 MultiPoly.__new__", "sample.py:7 out.terms", "sample.py:7 out.vars",
        "sample.py:8 out.terms"]
