"""Source rules for the library: errors are never swallowed, and validation never uses assert."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "fbmsde").glob("*.py"))


def _violations(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler):
            if node.type is None:
                found.append(f"line {node.lineno}: bare except")
            elif any(
                isinstance(n, ast.Name) and n.id in ("Exception", "BaseException")
                for n in ast.walk(node.type)
            ):
                found.append(f"line {node.lineno}: except Exception")
        elif isinstance(node, ast.Assert):
            found.append(f"line {node.lineno}: assert")
    return found


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"solver.py", "fbm.py", "verify.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_swallowed_errors_or_asserts(path):
    assert _violations(ast.parse(path.read_text(), filename=str(path))) == []


@pytest.mark.parametrize(
    "snippet",
    [
        "try:\n    f()\nexcept Exception:\n    pass\n",
        "try:\n    f()\nexcept:\n    pass\n",
        "try:\n    f()\nexcept (ValueError, BaseException) as exc:\n    pass\n",
        "def g(x):\n    assert x > 0\n",
    ],
    ids=["except-exception", "bare-except", "tuple-base-exception", "assert"],
)
def test_rules_catch_each_form(snippet):
    assert len(_violations(ast.parse(snippet))) == 1


def test_narrow_handlers_allowed():
    assert _violations(ast.parse("try:\n    f()\nexcept (ValueError, KeyError):\n    pass\n")) == []
