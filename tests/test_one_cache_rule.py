"""Every cache entry is made under one lifetime rule.

`RecursiveResolver._cache_response` makes the entry of every final reply,
Secure or not, from the validator's pick of it, and caps what it stores by
the RRSIG lifetimes, the SOA and `MAX_CACHE_TTL`; `_cache_referral` caps
referral NS and glue by `MAX_CACHE_TTL`. The DNSKEY and DS RRsets a
validating walk verified go through `_cache_response` too. So `self.cache.put(` appears in
`src/` only inside those two methods: a third call site could store an entry
past the caps without any lifetime test noticing. The validated NSEC gaps
that answer later lookups (RFC 8198) live no longer than the Secure negative
entry that proved them, so `self.cache.put_gap(` appears only inside
`_cache_response`."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "dnsseclab"
#: Each cache-storing method of `self.cache` -> the scopes that may use it.
ALLOWED_SCOPES = {
    "put": {"RecursiveResolver._cache_response", "RecursiveResolver._cache_referral"},
    "put_gap": {"RecursiveResolver._cache_response"},
}


def _scoped_nodes(tree):
    """(enclosing function or class path, node) for every node in `tree`."""
    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        yield scope, node
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)
    return visit(tree, "")


def _cache_put(node) -> str | None:
    """The name of the `self.cache` storing method `node` uses, called or not
    (an alias counts as a use); else None."""
    if (isinstance(node, ast.Attribute) and node.attr in ALLOWED_SCOPES
            and isinstance(node.value, ast.Attribute) and node.value.attr == "cache"
            and isinstance(node.value.value, ast.Name) and node.value.value.id == "self"):
        return node.attr
    return None


def stray_puts(source: str) -> list[tuple[str, int]]:
    """(enclosing scope, line) of each `self.cache.put` or `put_gap` outside
    the methods that apply the lifetime caps."""
    return [(scope, node.lineno) for scope, node in _scoped_nodes(ast.parse(source))
            if (method := _cache_put(node)) and scope not in ALLOWED_SCOPES[method]]


@pytest.mark.parametrize("source, expected", [
    ("class RecursiveResolver:\n    def _cache_response(self):\n"
     "        self.cache.put(1, 2)\n", []),
    ("class RecursiveResolver:\n    def _cache_referral(self):\n"
     "        self.cache.put(1, 2)\n", []),
    ("class RecursiveResolver:\n    def _validation_fetch(self):\n"
     "        self.cache.put(1, 2)\n", [("RecursiveResolver._validation_fetch", 3)]),
    ("class RecursiveResolver:\n    def resolve(self):\n        put = self.cache.put\n",
     [("RecursiveResolver.resolve", 3)]),
    ("class RecursiveResolver:\n    def _validation_fetch(self):\n"
     "        def fetch():\n            self.cache.put(1, 2)\n",
     [("RecursiveResolver._validation_fetch.fetch", 4)]),
    ("class RecursiveResolver:\n    def resolve(self):\n        self.cache.get(1, 2)\n", []),
    ("class RecursiveResolver:\n    def _cache_response(self):\n"
     "        self.cache.put_gap(1, 2, 3)\n", []),
    ("class RecursiveResolver:\n    def _cache_referral(self):\n"
     "        self.cache.put_gap(1, 2, 3)\n", [("RecursiveResolver._cache_referral", 3)]),
    ("class RecursiveResolver:\n    def _synthesized(self):\n"
     "        self.cache.put_gap(1, 2, 3)\n", [("RecursiveResolver._synthesized", 3)]),
    ("class RecursiveResolver:\n    def resolve(self):\n        self.cache.gap(1, 2)\n", []),
], ids=["response", "referral", "stray", "alias", "nested", "get", "gap-response",
        "gap-referral", "gap-stray", "gap-lookup"])
def test_checker_flags_only_stray_puts(source, expected):
    assert stray_puts(source) == expected


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_cache_entries_are_made_in_one_place(path):
    assert stray_puts(path.read_text(encoding="utf-8")) == []
