"""Layering: the product never depends on test code.

The per-flow reference twins live in ``tests/reference/`` so that the
product (``src/repro``) has one implementation per layer.  The dependency
runs one way: tests and the perf harness import the twins, and no module
under ``src/repro`` may import ``reference``, ``tests`` or ``conftest``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
FORBIDDEN = {"reference", "tests", "conftest"}


def _imported_roots(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.lineno, node.module.split(".")[0]


def test_product_imports_no_test_code():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 50  # the walk really sees the package
    offending = [
        f"{path.relative_to(SRC)}:{lineno}: {root}"
        for path in modules
        for lineno, root in _imported_roots(ast.parse(path.read_text(), filename=str(path)))
        if root in FORBIDDEN
    ]
    assert not offending, f"src/repro imports test code: {offending}"


def test_detector_flags_a_reference_import():
    tree = ast.parse("import os\nfrom reference.maxmin import max_min\nimport tests.x\n")
    roots = [root for _, root in _imported_roots(tree)]
    assert [root for root in roots if root in FORBIDDEN] == ["reference", "tests"]
