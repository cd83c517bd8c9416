"""Only `wire.read_name` and `DnsName.parent` build unchecked names.

`DnsName._trusted` skips every check `DnsName.__init__` makes. It is safe
only where the labels were already checked: by `read_name` on the wire, or
as a suffix of a name that passed the checks. Any other use would let a
name longer than 255 octets, or with an empty or `bytearray` label, exist."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted({*(ROOT / "src" / "dnsseclab").glob("*.py"),
                  *(ROOT / "tests").glob("*.py"), *(ROOT / "perfbench").rglob("*.py")}
                 - {Path(__file__).resolve()})
ALLOWED = {("wire.py", "read_name"), ("names.py", "DnsName.parent")}
TRUSTED = "_trusted"


def trusted_uses(source: str, filename: str) -> list[tuple[str, int]]:
    """(enclosing function, line) of each reference to the trusted
    constructor in `source` outside the allowed functions."""
    uses = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        named = ((isinstance(node, ast.Attribute) and node.attr == TRUSTED)
                 or (isinstance(node, ast.Name) and node.id == TRUSTED)
                 or (isinstance(node, ast.alias) and node.name == TRUSTED)
                 or (isinstance(node, ast.Constant) and node.value == TRUSTED))
        if named and (filename, scope) not in ALLOWED:
            uses.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return uses


@pytest.mark.parametrize("filename, source, expected", [
    ("wire.py", "def read_name(d):\n    return DnsName._trusted(d)\n", []),
    ("names.py", "class DnsName:\n    def parent(self):\n"
                 "        return DnsName._trusted(self.labels[1:])\n", []),
    ("resolver.py", "def read_name(d):\n    return DnsName._trusted(d)\n",
     [("read_name", 2)]),
    ("wire.py", "def read_exact(d):\n    make = DnsName._trusted\n    return make(d)\n",
     [("read_exact", 2)]),
    ("names.py", "class DnsName:\n    def child(self, label):\n"
                 "        return getattr(DnsName, '_trusted')((label,))\n",
     [("DnsName.child", 3)]),
    ("server.py", "from .names import _trusted\n", [("", 1)]),
    ("names.py", "class DnsName:\n    @classmethod\n"
                 "    def _trusted(cls, labels):\n        return cls()\n", []),
], ids=["read_name", "parent", "other-module", "bound-alias", "getattr", "import",
        "definition"])
def test_checker_flags_only_uses_outside_the_two_callers(filename, source, expected):
    assert trusted_uses(source, filename) == expected


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_trusted_constructor_stays_in_its_two_callers(path):
    assert trusted_uses(path.read_text(encoding="utf-8"), path.name) == []
