"""Source rules for the library: errors are never swallowed, validation never uses assert,
every exported name exists and is used by the package, the package imports only exported
names, and nothing runs concurrently."""

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


def _defines(node: ast.stmt) -> set[str]:
    """The names a top-level statement defines: a def's or class's name, or an assignment's targets."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        return {n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def _missing_exports(tree: ast.Module) -> list[str]:
    """Names in the module's ``__all__`` that no top-level def, class or assignment defines."""
    defined, exported = set(), []
    for node in tree.body:
        names = _defines(node)
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


def _references(node: ast.AST) -> set[str]:
    """Every name an ``ast.Name`` or ``ast.Attribute`` under ``node`` reads or writes."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _unreferenced_exports(trees: dict[str, ast.Module]) -> list[str]:
    """``module.name`` for each name in a module's ``__all__`` that no code of the package references.

    A reference is an ``ast.Name`` or an ``ast.Attribute`` of that name in any
    module, outside the name's own top-level definition and the export lists:
    ``__all__`` itself, and the package's imports, which are aliases, not names.
    """
    exported = {
        module: ast.literal_eval(node.value)
        for module, tree in trees.items()
        for node in tree.body
        if "__all__" in _defines(node)
    }
    # (module, names the statement defines, names it references) per top-level statement
    uses = [
        (module, _defines(node), _references(node))
        for module, tree in trees.items()
        for node in tree.body
        if "__all__" not in _defines(node)
    ]
    return sorted(
        f"{module}.{name}"
        for module, names in exported.items()
        for name in names
        if not any(name in used and not (at == module and name in defined) for at, defined, used in uses)
    )


def _unexported_imports(init: ast.Module, all_of) -> list[str]:
    """``module.name`` for each name the package imports from a module outside its ``__all__``."""
    found = []
    for node in init.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            exported = all_of(node.module)
            found += [f"{node.module}.{a.name}" for a in node.names if a.name not in exported]
    return found


_CONCURRENCY = ("concurrent", "threading", "multiprocessing")


def _concurrency_imports(tree: ast.AST) -> list[str]:
    """``line N: module`` for each absolute import of a concurrency package or its submodules."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [f"line {node.lineno}: {m}" for m in modules if m.split(".")[0] in _CONCURRENCY]
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


# Public names no library code uses yet, each with the reason it stays public.
_UNUSED_EXPORTS = {
    "fbm.inner_product": "perfbench/child.py traces malliavin.inner_product by name, "
    "so malliavin imports it (an import is no reference) until the tracer drops it",
    "solver.check_drift_assumptions": "the audit of the paper's drift hypotheses, "
    "meant for every report that uses a drift; only the tests call it so far",
}


def test_every_export_is_used_by_the_package():
    # a public function only the tests call belongs with them, as an oracle
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    assert _unreferenced_exports(trees) == sorted(_UNUSED_EXPORTS)


def test_usage_rule_catches_an_unreferenced_name():
    # g is called and f read as an attribute elsewhere; h only calls itself and is re-exported
    trees = {
        "a": ast.parse("__all__ = ['f', 'g', 'h']\ndef f():\n    return g()\ndef g(): pass\ndef h():\n    return h()\n"),
        "b": ast.parse("from . import a\nfrom .a import h\nx = a.f\n"),
    }
    assert _unreferenced_exports(trees) == ["a.h"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_concurrency_imports(path):
    # every path depends only on its seed and index, so a worker pool could change only wall time
    assert _concurrency_imports(ast.parse(path.read_text(), filename=str(path))) == []


@pytest.mark.parametrize(
    "snippet, expected",
    [
        ("from concurrent.futures import ThreadPoolExecutor\n", ["line 1: concurrent.futures"]),
        ("import numpy as np\nimport threading\n", ["line 2: threading"]),
        ("def f():\n    import multiprocessing.pool as mp\n", ["line 2: multiprocessing.pool"]),
        ("from .threading import x\nimport threadpoolctl\n", []),
    ],
    ids=["from-concurrent", "import-threading", "nested-multiprocessing", "look-alikes-allowed"],
)
def test_concurrency_rule_catches_each_form(snippet, expected):
    assert _concurrency_imports(ast.parse(snippet)) == expected


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
