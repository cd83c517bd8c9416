"""Every RDATA type goes through one codec.

`records.Rdata` reads, writes, canonicalises, prints and parses every type
from the kinds its `FIELDS` declares, so the signer, server, validator and
zone files agree on each RDATA's bytes (RFC 4034 §6.2) through one piece of
code. In `records.py`, only that base and `OpaqueRdata` (unknown types as raw
octets) define `from_wire`, `to_wire`, `canonical_wire`, `to_text` or
`from_text`, by `def`, by assignment or by `setattr`. `ResourceRecord`
prints a whole record, owner to RDATA, and is not an RDATA class."""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

from dnsseclab.records import RDATA_CLASSES, Rdata

RECORDS = Path(__file__).resolve().parents[1] / "src" / "dnsseclab" / "records.py"
CODEC = {"from_wire", "to_wire", "canonical_wire", "to_text", "from_text"}
ALLOWED = {"Rdata", "OpaqueRdata", "ResourceRecord"}


def _scoped_nodes(tree):
    """(enclosing function or class path, node) for every node in `tree`."""
    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        yield scope, node
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)
    return visit(tree, "")


def _defines_codec(node) -> bool:
    """True when `node` defines a codec method: a `def`, an assignment to the
    name, or a `setattr` with the name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return node.name in CODEC
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return any(isinstance(t, ast.Name) and t.id in CODEC for t in targets)
    if isinstance(node, ast.Call):
        return (isinstance(node.func, ast.Name) and node.func.id == "setattr"
                and len(node.args) >= 2 and isinstance(node.args[1], ast.Constant)
                and node.args[1].value in CODEC)
    return False


def stray_codecs(source: str) -> list[tuple[str, int]]:
    """(enclosing scope, line) of each codec method defined outside the
    shared base, `OpaqueRdata` and `ResourceRecord`."""
    return [(scope, node.lineno) for scope, node in _scoped_nodes(ast.parse(source))
            if _defines_codec(node) and scope.split(".")[0] not in ALLOWED]


@pytest.mark.parametrize("source, expected", [
    ("class Rdata:\n    def to_wire(self):\n        return self._wire\n"
     "    @classmethod\n    def from_text(cls, tokens, origin):\n        return cls()\n", []),
    ("class OpaqueRdata:\n    def to_wire(self):\n        return self.data\n"
     "    canonical_wire = to_wire\n", []),
    ("class ResourceRecord:\n    def to_text(self, origin=None):\n        return ''\n", []),
    ("class RrsigRdata(Rdata):\n    def signed_prefix(self):\n        return b''\n", []),
    ("class ARdata(Rdata):\n    def to_wire(self):\n        return b''\n",
     [("ARdata.to_wire", 2)]),
    ("class NsecRdata(Rdata):\n    @classmethod\n    def from_wire(cls, msg, offset, end):\n"
     "        return cls(), end\n", [("NsecRdata.from_wire", 3)]),
    ("class TxtRdata(Rdata):\n    canonical_wire = Rdata.to_wire\n", [("TxtRdata", 2)]),
    ("class DsRdata(Rdata):\n    to_text: object = None\n", [("DsRdata", 2)]),
    ("def to_text(rdata, origin):\n    return ''\n", [("to_text", 1)]),
    ("setattr(MxRdata, 'from_text', None)\n", [("", 1)]),
], ids=["base", "opaque", "record", "other-method", "method", "classmethod", "alias",
        "annotated", "module-function", "setattr"])
def test_checker_flags_only_stray_codecs(source, expected):
    assert stray_codecs(source) == expected


def test_records_has_one_rdata_codec():
    assert stray_codecs(RECORDS.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("cls", list(RDATA_CLASSES.values()), ids=lambda cls: cls.__name__)
def test_each_type_declares_a_kind_for_each_field(cls):
    """A kind per dataclass field, and a rest-of-RDATA kind only last."""
    assert issubclass(cls, Rdata) and cls.RTYPE in RDATA_CLASSES
    assert len(cls.FIELDS) == len(fields(cls))
    assert not any(kind.rest for kind in cls.FIELDS[:-1])
