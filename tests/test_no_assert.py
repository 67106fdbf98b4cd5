"""The package holds no `assert` statement, so no internal invariant vanishes under `python -O`."""

import ast
from pathlib import Path

import simcores

PACKAGE = Path(simcores.__file__).resolve().parent


def assert_statements(tree: ast.AST) -> list[int]:
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert))


def test_assert_statements_are_detected():
    source = (
        "assert True\n"
        "def f(x):\n    assert x, 'message'\n    return x\n"
        "class C:\n    def m(self):\n        if self:\n            assert self\n"
        "text = 'assert inside a string'\n"
        "# assert inside a comment\n"
        "def g(self):\n    self.assertEqual(1, 1)\n"
    )
    assert assert_statements(ast.parse(source)) == [1, 3, 8]


def test_no_assert_statement_in_the_package():
    offenders = {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if (lines := assert_statements(ast.parse(path.read_text(), filename=str(path))))
    }
    assert offenders == {}
