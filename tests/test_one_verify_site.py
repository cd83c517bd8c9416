"""Validation pays for a signature in one place.

`rsa.verify` is referenced only by `validator.verify_rrsig` and by the
sign/verify self-test in `keystore.read_key_files`; inside `validator.py`,
`verify_rrsig` is called only by `verify_with_any`. A bound on the verify
work per response, or a memo of checks that already passed, then has one
place to go."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "dnsseclab"
RSA_ALLOWED = {("validator.py", "verify_rrsig"), ("keystore.py", "read_key_files")}


def _scoped_nodes(tree):
    """(enclosing function or class path, node) for every node in `tree`."""
    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        yield scope, node
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)
    return visit(tree, "")


def _is_rsa_verify(node) -> bool:
    if isinstance(node, ast.Attribute):
        return (node.attr == "verify" and isinstance(node.value, ast.Name)
                and node.value.id == "rsa")
    if isinstance(node, ast.ImportFrom):
        return ((node.module or "").split(".")[-1] == "rsa"
                and any(alias.name == "verify" for alias in node.names))
    if isinstance(node, ast.Call):  # getattr(rsa, "verify")
        return (isinstance(node.func, ast.Name) and node.func.id == "getattr"
                and len(node.args) >= 2 and isinstance(node.args[0], ast.Name)
                and node.args[0].id == "rsa" and isinstance(node.args[1], ast.Constant)
                and node.args[1].value == "verify")
    return False


def _is_verify_rrsig_use(node) -> bool:
    return ((isinstance(node, ast.Name) and node.id == "verify_rrsig")
            or (isinstance(node, ast.Attribute) and node.attr == "verify_rrsig"))


def stray_verifies(source: str, filename: str) -> list[tuple[str, int]]:
    """(enclosing scope, line) of each reference to `rsa.verify` outside its
    two callers, and, in `validator.py`, of each use of `verify_rrsig`
    outside `verify_with_any`."""
    stray = []
    for scope, node in _scoped_nodes(ast.parse(source)):
        if _is_rsa_verify(node) and (filename, scope) not in RSA_ALLOWED:
            stray.append((scope, node.lineno))
        if (filename == "validator.py" and _is_verify_rrsig_use(node)
                and scope != "verify_with_any"):
            stray.append((scope, node.lineno))
    return stray


@pytest.mark.parametrize("filename, source, expected", [
    ("validator.py", "def verify_rrsig(s):\n    return rsa.verify(s)\n", []),
    ("keystore.py", "def read_key_files(p):\n    return rsa.verify(p)\n", []),
    ("validator.py", "def verify_with_any(s):\n    return verify_rrsig(s)\n", []),
    ("signer.py", "def check(s):\n    return verify_rrsig(s)\n", []),
    ("rsa.py", "def verify(key, data):\n    return True\n", []),
    ("resolver.py", "def check(s):\n    return rsa.verify(s)\n", [("check", 2)]),
    ("validator.py", "def check_denial(s):\n    return rsa.verify(s)\n",
     [("check_denial", 2)]),
    ("signer.py", "from .rsa import verify\n", [("", 1)]),
    ("keystore.py", "def generate_key(k):\n    return getattr(rsa, 'verify')(k)\n",
     [("generate_key", 2)]),
    ("validator.py", "def validate_chain(s):\n    return verify_rrsig(s)\n",
     [("validate_chain", 2)]),
    ("validator.py", "def check_denial(s):\n    check = verify_rrsig\n    return check(s)\n",
     [("check_denial", 2)]),
], ids=["verify_rrsig", "key-self-test", "verify_with_any", "other-module-rrsig",
        "definition", "rsa-other-module", "rsa-other-function", "import",
        "getattr", "rrsig-in-chain-walk", "rrsig-alias"])
def test_checker_flags_only_stray_verifies(filename, source, expected):
    assert stray_verifies(source, filename) == expected


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_signatures_are_paid_for_in_one_place(path):
    assert stray_verifies(path.read_text(encoding="utf-8"), path.name) == []
