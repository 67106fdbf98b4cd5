"""No function in the package calls itself, so no input depth meets the recursion limit."""

import ast
from pathlib import Path

import simcores

PACKAGE = Path(simcores.__file__).resolve().parent


def self_calling_functions(tree: ast.AST) -> list[str]:
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            direct = isinstance(callee, ast.Name) and callee.id == fn.name
            via_self = (isinstance(callee, ast.Attribute) and callee.attr == fn.name
                        and isinstance(callee.value, ast.Name) and callee.value.id in ("self", "cls"))
            if direct or via_self:
                found.append(f"{fn.name} (line {fn.lineno})")
                break
    return found


def test_self_calls_are_detected():
    source = (
        "def f(n):\n    return f(n - 1)\n"
        "def outer():\n    def rec(i):\n        yield from rec(i + 1)\n    return rec(0)\n"
        "class C:\n    def m(self):\n        return self.m()\n"
        "def g(x):\n    return x.g()\n"
    )
    assert self_calling_functions(ast.parse(source)) == [
        "f (line 1)", "rec (line 4)", "m (line 8)"]


def test_no_function_in_the_package_calls_itself():
    offenders = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := self_calling_functions(ast.parse(path.read_text(), filename=str(path))))
    }
    assert offenders == {}
