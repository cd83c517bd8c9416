"""Only the validator picks out the records of a reply.

`validator.pick` is the one rule for the records that answer a question:
`validate_chain` verifies exactly what it picks, and the resolver caches and
serves a Secure outcome's records as they are and every other reply's pick,
unverified. So `records_of` and `rrsigs_covering` appear nowhere in
`resolver.py`: a second search there could admit records no pick chose,
such as an RRset chained onto the reply for a name nobody asked about."""

import ast
from pathlib import Path

import pytest

RESOLVER = Path(__file__).resolve().parents[1] / "src" / "dnsseclab" / "resolver.py"
PICKERS = {"records_of", "rrsigs_covering"}


def _scoped_nodes(tree):
    """(enclosing function or class path, node) for every node in `tree`."""
    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        yield scope, node
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)
    return visit(tree, "")


def _picker(node) -> str | None:
    """The record picker `node` uses, called or not (an alias counts as a
    use); else None. Importing one is not a use."""
    if isinstance(node, ast.Name) and node.id in PICKERS:
        return node.id
    if isinstance(node, ast.Attribute) and node.attr in PICKERS:
        return node.attr
    return None


def stray_picks(source: str) -> list[tuple[str, int]]:
    """(enclosing scope, line) of each use of `records_of` or
    `rrsigs_covering`."""
    return [(scope, node.lineno) for scope, node in _scoped_nodes(ast.parse(source))
            if _picker(node)]


@pytest.mark.parametrize("source, expected", [
    ("class RecursiveResolver:\n    def _cache_response(self, msg):\n"
     "        rrsigs_covering(msg.answers, 1, 2)\n",
     [("RecursiveResolver._cache_response", 3)]),
    ("class RecursiveResolver:\n    def _cache_response(self, msg):\n"
     "        msg.records_of(1, 2)\n", [("RecursiveResolver._cache_response", 3)]),
    ("from .records import rrsigs_covering\n", []),
    ("class RecursiveResolver:\n    def _resolve_upstream(self, msg):\n"
     "        msg.records_of(1, 2)\n", [("RecursiveResolver._resolve_upstream", 3)]),
    ("def _only(msg):\n    return rrsigs_covering(msg.answers, 1, 2)\n", [("_only", 2)]),
    ("class RecursiveResolver:\n    def _resolve_upstream(self, msg):\n"
     "        pick = msg.records_of\n", [("RecursiveResolver._resolve_upstream", 3)]),
    ("class RecursiveResolver:\n    def _cache_response(self, msg):\n"
     "        def gap():\n            return msg.records_of(1, 2)\n",
     [("RecursiveResolver._cache_response.gap", 4)]),
], ids=["covering", "records-of", "import", "stray", "module-level", "alias", "nested"])
def test_checker_flags_only_stray_picks(source, expected):
    assert stray_picks(source) == expected


def test_the_resolver_picks_records_in_one_place():
    assert stray_picks(RESOLVER.read_text(encoding="utf-8")) == []
