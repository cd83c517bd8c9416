"""The attacker's guesses, and the RSA prime candidates, are each drawn in
one place.

The pinned lab reports (`tests/test_attack_reports.py`) depend on every word
the attacker's RNG gives. `netsim.draw_guesses` reproduces `rng.sample`
word for word; a second draw path in `attack.py` or `netsim.py` (another
`.sample` or `.getrandbits`) could take words in another order and move the
reports without any check here noticing why. So `.sample` and
`.getrandbits` appear in those two modules only inside `draw_guesses`.

Every seeded key, and so every pinned signature and digest, depends on the
words `rsa._generate_prime` draws for its candidates; in `rsa.py` the two
draws appear only inside it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "dnsseclab"
#: The one scope of each module in which it may draw.
MODULES = {"attack.py": "draw_guesses", "netsim.py": "draw_guesses",
           "rsa.py": "_generate_prime"}
DRAWS = {"sample", "getrandbits"}


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


def stray_draws(source: str, allowed: str = "draw_guesses") -> list[tuple[str, int]]:
    """(enclosing scope, line) of each use of `.sample` or `.getrandbits`
    outside the `allowed` scope."""
    return [(scope, node.lineno) for scope, node in _scoped_nodes(ast.parse(source))
            if _is_draw(node) and scope != allowed]


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


def test_checker_takes_each_module_s_own_scope():
    source = ("def _generate_prime(bits, rng):\n    return rng.getrandbits(bits)\n"
              "def generate_keypair(bits, rng):\n    return rng.getrandbits(bits)\n")
    assert stray_draws(source, "_generate_prime") == [("generate_keypair", 4)]
    assert stray_draws(source) == [("_generate_prime", 2), ("generate_keypair", 4)]


@pytest.mark.parametrize("name", MODULES)
def test_guesses_are_drawn_in_one_place(name):
    assert stray_draws((SRC / name).read_text(encoding="utf-8"), MODULES[name]) == []
