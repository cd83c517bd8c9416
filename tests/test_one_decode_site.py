"""RDATA is decoded in one place.

Only `records.rdata_from_wire` calls an RDATA class's `from_wire` or touches
its intern table, so every decoded RDATA passes through the table's checks,
and the table cannot be read or filled around them."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "dnsseclab"
ALLOWED = ("records.py", "rdata_from_wire")
TABLE = {"_interned", "_interned_lock"}


def _scoped_nodes(tree):
    """(enclosing function or class path, node) for every node in `tree`."""
    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        yield scope, node
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)
    return visit(tree, "")


def _is_decode_use(node) -> bool:
    """A reference to some `from_wire` or to the intern table, by attribute,
    by name, by import or by `getattr`."""
    if isinstance(node, ast.Attribute):
        return node.attr == "from_wire" or node.attr in TABLE
    if isinstance(node, ast.Name):
        return node.id in TABLE
    if isinstance(node, ast.ImportFrom):
        return any(alias.name == "from_wire" or alias.name in TABLE for alias in node.names)
    if isinstance(node, ast.Call):
        return (isinstance(node.func, ast.Name) and node.func.id == "getattr"
                and len(node.args) >= 2 and isinstance(node.args[1], ast.Constant)
                and (node.args[1].value == "from_wire" or node.args[1].value in TABLE))
    return False


def stray_decodes(source: str, filename: str) -> list[tuple[str, int]]:
    """(enclosing scope, line) of each use of `from_wire` or of the intern
    table outside `records.rdata_from_wire`. The table's own definition at
    module level in `records.py` is not a use."""
    stray = []
    for scope, node in _scoped_nodes(ast.parse(source)):
        if not _is_decode_use(node) or (filename, scope) == ALLOWED:
            continue
        if (filename == "records.py" and not scope and isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Store)):
            continue
        stray.append((scope, node.lineno))
    return stray


@pytest.mark.parametrize("filename, source, expected", [
    ("records.py", "def rdata_from_wire(t, m, o, e):\n"
                   "    return _interned.get(t) or RDATA_CLASSES[t].from_wire(m, o, e)\n", []),
    ("records.py", "_interned = {}\n_interned_lock = None\n", []),
    ("records.py", "class ARdata:\n    def from_wire(cls, m, o, e):\n        return m\n", []),
    ("message.py", "def decode(m):\n    return ARdata.from_wire(m, 0, 4)\n", [("decode", 2)]),
    ("records.py", "def rdata_from_text(t):\n    return RDATA_CLASSES[t].from_wire(t)\n",
     [("rdata_from_text", 2)]),
    ("resolver.py", "def peek(k):\n    return records._interned.get(k)\n", [("peek", 2)]),
    ("server.py", "from .records import _interned\n", [("", 1)]),
    ("validator.py", "def decode(c, m):\n    return getattr(c, 'from_wire')(m)\n",
     [("decode", 2)]),
    ("records.py", "def warm(k, v):\n    _interned[k] = v\n", [("warm", 2)]),
], ids=["rdata_from_wire", "table-definition", "method-definition", "other-module",
        "other-function", "table-read", "table-import", "getattr", "table-write"])
def test_checker_flags_only_stray_decodes(filename, source, expected):
    assert stray_decodes(source, filename) == expected


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_rdata_is_decoded_in_one_place(path):
    assert stray_decodes(path.read_text(encoding="utf-8"), path.name) == []
