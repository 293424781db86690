"""The names the package exports, and the names the benchmark's tracer wraps,
all exist.

The benchmark (``bench/``) replaces package functions by timing wrappers,
looked up by ``(module, name)`` in ``bench/spans.py``; a deleted or renamed
function would otherwise only show up as an ``AttributeError`` in a traced
benchmark run.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import superevents

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

MODULES = [superevents] + [
    importlib.import_module(f"superevents.{info.name}")
    for info in pkgutil.iter_modules(superevents.__path__)
]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_all_names_exist(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"


def bench_targets():
    """``TARGETS`` from bench/spans.py, read without importing the benchmark."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} defines no TARGETS")


def test_bench_span_targets_resolve():
    targets = bench_targets()
    assert targets
    missing = [(module, name) for module, name, _ in targets
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"bench/spans.py TARGETS that do not resolve: {missing}"
