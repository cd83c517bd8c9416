"""The attacker's guesses, and the RSA prime candidates, are each drawn in
one place.

The pinned lab reports (`tests/test_attack_reports.py`) depend on every word
the attacker's RNG gives. `netsim.GuessStream` reads that RNG's words ahead
of the guesses it has handed out, so any other draw on it would shift every
later guess. So in `attack.py` and `netsim.py` no `random.Random` draw
method appears outside `GuessStream`, except the draws of source ports and
transaction ids in `netsim.py`, which use their own RNGs.

Every seeded key, and so every pinned signature and digest, depends on the
words `rsa._generate_prime` draws for its candidates; in `rsa.py` its two
draws, `getrandbits` and `sample`, appear only inside it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "dnsseclab"
#: Every method of `random.Random` that takes words from the generator.
RNG_DRAWS = frozenset({"sample", "getrandbits", "random", "randrange", "randint", "choice",
                       "choices", "shuffle", "uniform", "randbytes"})
#: Each module's checked draws, and the scopes in which they may appear.
MODULES = {
    "attack.py": (RNG_DRAWS, ()),
    "netsim.py": (RNG_DRAWS, ("GuessStream", "PortPolicy.next_port",
                              "SimTransport.__init__", "SimTransport.new_txid")),
    "rsa.py": (frozenset({"sample", "getrandbits"}), ("_generate_prime",)),
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


def _is_draw(node, draws) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr in draws
    if isinstance(node, ast.Call):  # getattr(rng, "sample")
        return (isinstance(node.func, ast.Name) and node.func.id == "getattr"
                and len(node.args) >= 2 and isinstance(node.args[1], ast.Constant)
                and node.args[1].value in draws)
    return False


def _within(scope: str, allowed) -> bool:
    return any(scope == a or scope.startswith(f"{a}.") for a in allowed)


def stray_draws(source: str, allowed=("GuessStream",),
                draws=RNG_DRAWS) -> list[tuple[str, int]]:
    """(enclosing scope, line) of each use of one of `draws` outside the
    `allowed` scopes and what they enclose."""
    return [(scope, node.lineno) for scope, node in _scoped_nodes(ast.parse(source))
            if _is_draw(node, draws) and not _within(scope, allowed)]


@pytest.mark.parametrize("source, expected", [
    ("class GuessStream:\n    def draw(self):\n        return self.rng.sample(range(9), 3)\n",
     []),
    ("class GuessStream:\n    def _refill(self):\n        return self.rng.getrandbits(32)\n",
     []),
    ("def on_query(self):\n    return self.rng.sample(range(9), 3)\n", [("on_query", 2)]),
    ("class A:\n    def on_query(self):\n        return self.rng.getrandbits(32)\n",
     [("A.on_query", 3)]),
    ("def on_query(self):\n    draw = self.rng.sample\n    return draw(range(9), 3)\n",
     [("on_query", 2)]),
    ("def on_query(self):\n    return getattr(self.rng, 'getrandbits')(32)\n",
     [("on_query", 2)]),
    ("def on_query(self):\n    return self.rng.randrange(9)\n", [("on_query", 2)]),
], ids=["helper-sample", "helper-words", "sample", "method-words", "alias", "getattr",
        "other-call"])
def test_checker_flags_only_stray_draws(source, expected):
    assert stray_draws(source) == expected


@pytest.mark.parametrize("draw", sorted(RNG_DRAWS))
def test_checker_flags_every_draw_method(draw):
    source = f"def on_query(self):\n    return self.rng.{draw}\n"
    assert stray_draws(source) == [("on_query", 2)]
    assert stray_draws(source, ("on_query",)) == []


def test_checker_passes_what_draws_nothing():
    source = ("import random\ndef build(seed):\n    rng = random.Random(seed)\n"
              "    return rng.getstate(), rng.seed(seed)\n")
    assert stray_draws(source) == []


def test_checker_takes_each_module_s_own_scope():
    source = ("def _generate_prime(bits, rng):\n    return rng.getrandbits(bits)\n"
              "def generate_keypair(bits, rng):\n    return rng.getrandbits(bits)\n"
              "class GuessStream:\n    def draw(self):\n        return self.rng.random()\n")
    assert stray_draws(source, ("_generate_prime",)) == [("generate_keypair", 4),
                                                          ("GuessStream.draw", 7)]
    assert stray_draws(source, ("_generate_prime",), {"getrandbits"}) == [
        ("generate_keypair", 4)]
    assert stray_draws(source) == [("_generate_prime", 2), ("generate_keypair", 4)]
    assert stray_draws(source, ("GuessStream.dr",)) == [
        ("_generate_prime", 2), ("generate_keypair", 4), ("GuessStream.draw", 7)]


@pytest.mark.parametrize("name", MODULES)
def test_guesses_are_drawn_in_one_place(name):
    draws, allowed = MODULES[name]
    assert stray_draws((SRC / name).read_text(encoding="utf-8"), allowed, draws) == []
