"""Source rules for the library: errors are never swallowed, validation never uses assert,
every exported name exists, and the package imports only exported names."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fbmsde"
SOURCES = sorted(PACKAGE.glob("*.py"))


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


def _missing_exports(tree: ast.Module) -> list[str]:
    """Names in the module's ``__all__`` that no top-level def, class or assignment defines."""
    defined, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            names = {n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            defined |= names
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
    return [name for name in exported if name not in defined]


def _all_of(module: str) -> list[str]:
    """The ``__all__`` list of ``src/fbmsde/<module>.py``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _unexported_imports(init: ast.Module, all_of) -> list[str]:
    """``module.name`` for each name the package imports from a module outside its ``__all__``."""
    found = []
    for node in init.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            exported = all_of(node.module)
            found += [f"{node.module}.{a.name}" for a in node.names if a.name not in exported]
    return found


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"solver.py", "fbm.py", "verify.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_swallowed_errors_or_asserts(path):
    assert _violations(ast.parse(path.read_text(), filename=str(path))) == []


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_export_is_defined(path):
    assert _missing_exports(ast.parse(path.read_text(), filename=str(path))) == []


def test_export_rule_catches_a_deleted_definition():
    source = "Z = 1\n__all__ = ['f', 'C', 'Z', 'gone']\ndef f(): pass\nclass C: pass\n"
    assert _missing_exports(ast.parse(source)) == ["gone"]


def test_package_imports_only_exported_names():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    assert _unexported_imports(init, _all_of) == []


def test_import_rule_catches_a_stale_name():
    init = ast.parse("from .solver import solve_batch, solve_cir\nfrom numpy import pi\n")
    assert _unexported_imports(init, lambda module: ["solve_batch"]) == ["solver.solve_cir"]


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
