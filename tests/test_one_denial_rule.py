"""Only the validator decides what a verified NSEC proves.

`validator.denied_rcode` is the one rule for what an NSEC proves about a
(qname, qtype): `check_denial` classifies its verified witnesses with it,
`validate_chain` compares its rcode with the response's, and the resolver's
answers from validated NSEC gaps (RFC 8198) are made with it too. So
`type_bitmap` and `nsec_gap_covers` appear nowhere in `resolver.py`, not
even imported: a second reading of a bitmap or a gap there could prove what
the validator refuses, such as a name below a delegation."""

import ast
from pathlib import Path

import pytest

RESOLVER = Path(__file__).resolve().parents[1] / "src" / "dnsseclab" / "resolver.py"
READERS = {"type_bitmap", "nsec_gap_covers"}


def _scoped_nodes(tree):
    """(enclosing function or class path, node) for every node in `tree`."""
    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        yield scope, node
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)
    return visit(tree, "")


def _reader(node) -> bool:
    """Whether `node` names an NSEC bitmap or gap reader: used, aliased or
    imported."""
    if isinstance(node, ast.Name):
        return node.id in READERS
    if isinstance(node, ast.Attribute):
        return node.attr in READERS
    if isinstance(node, ast.ImportFrom):
        return any(alias.name in READERS for alias in node.names)
    return False


def stray_denials(source: str) -> list[tuple[str, int]]:
    """(enclosing scope, line) of each use or import of `type_bitmap` or
    `nsec_gap_covers`."""
    return [(scope, node.lineno) for scope, node in _scoped_nodes(ast.parse(source))
            if _reader(node)]


@pytest.mark.parametrize("source, expected", [
    ("class RecursiveResolver:\n    def _synthesized(self, gap):\n"
     "        return 5 in gap.rrset.rdatas[0].type_bitmap\n",
     [("RecursiveResolver._synthesized", 3)]),
    ("class RecursiveResolver:\n    def _synthesized(self, a, b, c):\n"
     "        return nsec_gap_covers(a, b, c)\n", [("RecursiveResolver._synthesized", 3)]),
    ("from .records import RType, nsec_gap_covers\n", [("", 1)]),
    ("from .validator import denied_rcode\n", []),
    ("def _types(nsec):\n    return nsec.type_bitmap\n", [("_types", 2)]),
    ("class RecursiveResolver:\n    def _synthesized(self, records):\n"
     "        covers = records.nsec_gap_covers\n", [("RecursiveResolver._synthesized", 3)]),
    ("class RecursiveResolver:\n    def _synthesized(self, gap, qname, qtype):\n"
     "        return denied_rcode(gap.rrset.owner, gap.rrset.rdatas[0], qname, qtype)\n", []),
], ids=["bitmap", "gap", "import", "rule-import", "module-level", "alias", "rule-call"])
def test_checker_flags_only_stray_denials(source, expected):
    assert stray_denials(source) == expected


def test_the_resolver_reads_no_nsec_itself():
    assert stray_denials(RESOLVER.read_text(encoding="utf-8")) == []
