"""No function in the package imports.

A module's imports sit at its top, so its header lists everything it depends
on and an import cycle fails when the package loads, not on the first call
of the function that hid the import."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "dnsseclab"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def local_imports(source: str) -> list[int]:
    """Line numbers of the imports in `source` that sit inside a function."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, FUNCTIONS):
            lines.update(inner.lineno for inner in ast.walk(node)
                         if isinstance(inner, (ast.Import, ast.ImportFrom)))
    return sorted(lines)


@pytest.mark.parametrize("source, expected", [
    ("def f():\n    import os\n", [2]),
    ("class C:\n    def m(self):\n        from .x import y\n", [3]),
    ("def f():\n    def g():\n        import os\n", [3]),
    ("async def f():\n    if x:\n        import os\n", [3]),
    ("import os\n\n\ndef f():\n    return os\n", []),
], ids=["function", "method", "nested", "async-branch", "module-level"])
def test_checker_flags_only_imports_inside_functions(source, expected):
    assert local_imports(source) == expected


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    assert local_imports(path.read_text(encoding="utf-8")) == []
