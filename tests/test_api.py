"""The public surface: every exported name exists, ``nsg.__all__`` is the
modules' own lists joined, every function the benchmark's spans wrap is
still a function of its module, so a deletion that would break ``pytest
bench`` fails here too, no other module reaches into the private helpers of
``nsg.ideals``, and one function reads the environment settings."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import nsg

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# the modules whose public names make up nsg.__all__, in its order
EXPORTING = ("semigroup", "ideals", "constructions", "toric")


def test_every_exported_name_exists():
    modules = [nsg] + [importlib.import_module(f"nsg.{info.name}") for info in pkgutil.iter_modules(nsg.__path__)]
    missing = [f"{m.__name__}.{name}" for m in modules for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
    assert missing == []


def test_package_exports_are_the_module_lists_joined():
    modules = [importlib.import_module(f"nsg.{name}") for name in EXPORTING]
    joined = [name for module in modules for name in module.__all__]
    assert nsg.__all__ == joined
    assert len(set(joined)) == len(joined)
    assert [f"{m.__name__}.{n}" for m in modules for n in m.__all__ if getattr(nsg, n) is not getattr(m, n)] == []


def test_benchmark_spans_wrap_existing_functions():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"nsg.{layer}.{name}"
        for layer, names in spans.LAYERS.items()
        for name in names
        if not inspect.isfunction(getattr(importlib.import_module(f"nsg.{layer}"), name, None))
    ]
    assert missing == []


def test_no_module_imports_private_ideals_names():
    # the class-minimum helpers of nsg.ideals stay behind its public API
    leaks = []
    for path in sorted(Path(nsg.__file__).parent.glob("*.py")):
        if path.name == "ideals.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module in ("ideals", "nsg.ideals"):
                leaks += [f"{path.name}: {alias.name}" for alias in node.names if alias.name.startswith("_")]
    assert leaks == []


def test_one_function_reads_the_environment():
    # every run setting goes through scan._setting; nsg/__init__.py reads
    # the environment only to pin OpenBLAS for numpy's import
    reads = set()
    for path in sorted(Path(nsg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        scope = {}  # node -> name of its innermost enclosing function
        for fn in ast.walk(tree):  # breadth first, so inner functions come later
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope.update((node, fn.name) for node in ast.walk(fn))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "os":
                if node.attr in ("environ", "getenv"):
                    reads.add((path.name, scope.get(node)))
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                if {alias.name for alias in node.names} & {"environ", "getenv"}:
                    reads.add((path.name, scope.get(node)))
    assert reads == {("scan.py", "_setting"), ("__init__.py", None)}
