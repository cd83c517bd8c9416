"""A resolver answers a client through one function.

`RecursiveResolver._reply` builds the reply from a cache entry, whether the
entry was just made from an upstream reply, found in the cache or
synthesized from a validated NSEC gap, so a fresh reply and a cached one
cannot differ. In `resolver.py`, `_reply` is used once, in `resolve`, and a
reply is built (`make_reply`) only inside `_reply` and by the two exits of
`resolve` that have no entry: FORMERR for a query without a question and
SERVFAIL for a failed lookup."""

import ast
from pathlib import Path

import pytest

RESOLVER = Path(__file__).resolve().parents[1] / "src" / "dnsseclab" / "resolver.py"
SERVE = "RecursiveResolver._reply"
CALLER = "RecursiveResolver.resolve"
EXITS = {"FORMERR", "SERVFAIL"}


def _scoped_nodes(tree):
    """(enclosing function or class path, node) for every node in `tree`."""
    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        yield scope, node
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)
    return visit(tree, "")


def _exit_rcode(call: ast.Call) -> str | None:
    """The `Rcode` member named by the call's `rcode=` keyword, if any."""
    for keyword in call.keywords:
        if keyword.arg == "rcode" and isinstance(keyword.value, ast.Attribute):
            return keyword.value.attr
    return None


def stray_replies(source: str) -> list[tuple[str, int]]:
    """(enclosing scope, line) of each use of `_reply` outside `resolve` or
    past its first there, and of each use of `make_reply` outside `_reply`
    but for a call from `resolve` whose rcode is FORMERR or SERVFAIL (an
    alias counts as a use)."""
    nodes = list(_scoped_nodes(ast.parse(source)))
    exits = {id(node.func) for scope, node in nodes
             if scope == CALLER and isinstance(node, ast.Call) and _exit_rcode(node) in EXITS}
    stray, served = [], 0
    for scope, node in nodes:
        if isinstance(node, ast.Attribute) and node.attr == "_reply":
            served += scope == CALLER
            if scope != CALLER or served > 1:
                stray.append((scope, node.lineno))
        elif isinstance(node, ast.Name) and node.id == "make_reply" \
                and scope != SERVE and id(node) not in exits:
            stray.append((scope, node.lineno))
    return stray


_RESOLVE = "class RecursiveResolver:\n    def resolve(self, query):\n"


@pytest.mark.parametrize("source, expected", [
    (_RESOLVE + "        return self._reply(query, entry, now)\n", []),
    (_RESOLVE + "        return make_reply(query, rcode=Rcode.SERVFAIL)\n", []),
    (_RESOLVE + "        return make_reply(query, rcode=Rcode.FORMERR)\n", []),
    ("class RecursiveResolver:\n    def _reply(self, query, entry, now):\n"
     "        return make_reply(query, rcode=entry.negative.rcode)\n", []),
    (_RESOLVE + "        return make_reply(query, rcode=msg.rcode)\n",
     [("RecursiveResolver.resolve", 3)]),
    (_RESOLVE + "        return make_reply(query)\n", [("RecursiveResolver.resolve", 3)]),
    (_RESOLVE + "        if hit:\n            return self._reply(query, entry, now)\n"
     "        return self._reply(query, fresh, now)\n", [("RecursiveResolver.resolve", 5)]),
    ("class RecursiveResolver:\n    def _resolve_upstream(self, query):\n"
     "        return self._reply(query, entry, now)\n",
     [("RecursiveResolver._resolve_upstream", 3)]),
    ("class RecursiveResolver:\n    def _synthesized(self, query):\n"
     "        return make_reply(query, rcode=Rcode.SERVFAIL)\n",
     [("RecursiveResolver._synthesized", 3)]),
    (_RESOLVE + "        serve = self._reply\n        return serve(query, entry, now)\n", []),
    (_RESOLVE + "        build = make_reply\n"
     "        return build(query, rcode=Rcode.FORMERR)\n", [("RecursiveResolver.resolve", 3)]),
    ("from .message import make_reply\n", []),
], ids=["serve", "servfail", "formerr", "inside-reply", "upstream-rcode", "no-rcode",
        "second-serve", "serve-elsewhere", "exit-elsewhere", "alias", "builder-alias",
        "import"])
def test_checker_flags_only_stray_replies(source, expected):
    assert stray_replies(source) == expected


def test_the_resolver_serves_from_one_place():
    assert stray_replies(RESOLVER.read_text(encoding="utf-8")) == []
