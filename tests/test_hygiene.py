"""Source hygiene of src/epw, checked on the syntax tree.

* Every name a module (other than __init__) imports is used in that
  module; an import line marked `# noqa: F401` is a deliberate binding
  and is exempt.
* Every module-level function whose name starts with one underscore is
  referenced somewhere in src/epw outside its own body.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "epw"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


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
    """Names and attribute names referenced in tree, outside the node skip."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def unreferenced_private_functions():
    trees = {path.name: _tree(path) for path in MODULES}
    out = []
    for name, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_") and not node.name.startswith("__")
                    and not any(node.name in _references(t, skip=node)
                                for t in trees.values())):
                out.append("%s:%d %s" % (name, node.lineno, node.name))
    return out


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path) == []


def test_every_private_function_is_referenced():
    assert unreferenced_private_functions() == []


def test_the_checks_see_what_they_look_for(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("import os\nfrom math import gcd, lcm\n"
                    "from sys import argv  # noqa: F401\n\n"
                    "def _loop(n):\n    return _loop(n - 1) + lcm(n, 2)\n")
    assert unused_imports(path) == ["sample.py:1 os", "sample.py:2 gcd"]
    tree = _tree(path)
    fn = tree.body[-1]
    assert "_loop" not in _references(tree, skip=fn)
    assert "_loop" in _references(tree)
