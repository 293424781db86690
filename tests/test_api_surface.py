"""The names the package exports, and the names the benchmark's tracer wraps,
all exist, and every exported name has a use besides its tests.

The benchmark (``bench/``) replaces package functions by timing wrappers,
looked up by ``(module, name)`` in ``bench/spans.py``; a deleted or renamed
function would otherwise only show up as an ``AttributeError`` in a traced
benchmark run.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import superevents

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"

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


def names_read_in_src():
    """Every name the package's code reads, as a variable or an attribute;
    a definition, an import and an ``__all__`` entry are not reads."""
    read = set()
    for path in Path(superevents.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def exported_names():
    """(qualified name, name) of each submodule's __all__ names, and of the
    public methods and properties of the classes among them."""
    for module in MODULES[1:]:
        for name in getattr(module, "__all__", ()):
            yield f"{module.__name__}.{name}", name
            cls = getattr(module, name)
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                for member, value in vars(cls).items():
                    if not member.startswith("_") and (
                            callable(value)
                            or isinstance(value, (property, classmethod, staticmethod))):
                        yield f"{module.__name__}.{name}.{member}", member


def test_every_exported_name_is_used_outside_its_tests():
    # no public function or method exists only for its tests: each submodule's
    # __all__ name, and each public method and property of an exported class,
    # is read by the package's code, documented in README.md, or wrapped by
    # the benchmark's tracer
    read = names_read_in_src()
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    traced = {name for _, name, _ in bench_targets()}
    unused = [qualified for qualified, name in exported_names()
              if name not in read | traced
              and not re.search(rf"\b{re.escape(name)}\b", readme)]
    assert not unused, f"exported but used only by tests: {unused}"
