"""The attacker's guesses are drawn in one place.

The pinned lab reports (`tests/test_attack_reports.py`) depend on every word
the attacker's RNG gives. `netsim.draw_guesses` reproduces `rng.sample`
word for word; a second draw path in `attack.py` or `netsim.py` (another
`.sample` or `.getrandbits`) could take words in another order and move the
reports without any check here noticing why. So `.sample` and
`.getrandbits` appear in those two modules only inside `draw_guesses`."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "dnsseclab"
MODULES = ("attack.py", "netsim.py")
DRAWS = {"sample", "getrandbits"}
ALLOWED_SCOPE = "draw_guesses"


def _scoped_nodes(tree):
    """(enclosing function or class path, node) for every node in `tree`."""
    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        yield scope, node
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)
    return visit(tree, "")


def _is_draw(node) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr in DRAWS
    if isinstance(node, ast.Call):  # getattr(rng, "sample")
        return (isinstance(node.func, ast.Name) and node.func.id == "getattr"
                and len(node.args) >= 2 and isinstance(node.args[1], ast.Constant)
                and node.args[1].value in DRAWS)
    return False


def stray_draws(source: str) -> list[tuple[str, int]]:
    """(enclosing scope, line) of each use of `.sample` or `.getrandbits`
    outside `draw_guesses`."""
    return [(scope, node.lineno) for scope, node in _scoped_nodes(ast.parse(source))
            if _is_draw(node) and scope != ALLOWED_SCOPE]


@pytest.mark.parametrize("source, expected", [
    ("def draw_guesses(rng, n, k):\n    return rng.sample(range(n), k)\n", []),
    ("def draw_guesses(rng, n, k):\n    return rng.getrandbits(32 * k)\n", []),
    ("def on_query(self):\n    return self.rng.sample(range(9), 3)\n", [("on_query", 2)]),
    ("class A:\n    def on_query(self):\n        return self.rng.getrandbits(32)\n",
     [("A.on_query", 3)]),
    ("def on_query(self):\n    draw = self.rng.sample\n    return draw(range(9), 3)\n",
     [("on_query", 2)]),
    ("def on_query(self):\n    return getattr(self.rng, 'getrandbits')(32)\n",
     [("on_query", 2)]),
    ("def on_query(self):\n    return self.rng.randrange(9)\n", []),
], ids=["helper-sample", "helper-words", "sample", "method-words", "alias", "getattr",
        "other-call"])
def test_checker_flags_only_stray_draws(source, expected):
    assert stray_draws(source) == expected


@pytest.mark.parametrize("name", MODULES)
def test_guesses_are_drawn_in_one_place(name):
    assert stray_draws((SRC / name).read_text(encoding="utf-8")) == []
