"""No handler in the package swallows every error.

A bare `except:` or an `except Exception` that does not raise again turns a
crash into a quiet wrong answer: the attack lab once counted a crashed lookup
as "not poisoned". Handlers name the errors they expect, or re-raise."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "dnsseclab"
BROAD = {"Exception", "BaseException"}


def swallowing_handlers(source: str) -> list[int]:
    """Line numbers of the broad handlers in `source` that never raise."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        broad = node.type is None or any(isinstance(t, ast.Name) and t.id in BROAD
                                         for t in caught)
        if broad and not any(isinstance(n, ast.Raise) for n in ast.walk(node)):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("source, expected", [
    ("try:\n    f()\nexcept:\n    pass\n", [3]),
    ("try:\n    f()\nexcept Exception:\n    pass\n", [3]),
    ("try:\n    f()\nexcept (KeyError, Exception):\n    log()\n", [3]),
    ("try:\n    f()\nexcept Exception as exc:\n    raise Other() from exc\n", []),
    ("try:\n    f()\nexcept KeyError:\n    pass\n", []),
], ids=["bare", "exception", "tuple", "re-raise", "narrow"])
def test_checker_flags_only_swallowing_handlers(source, expected):
    assert swallowing_handlers(source) == expected


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_handler_swallows_every_error(path):
    assert swallowing_handlers(path.read_text(encoding="utf-8")) == []
