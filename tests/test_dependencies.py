"""Every third-party module the package imports is a declared dependency,
so an import that only works because the module happens to be installed
fails here."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11 on

ROOT = Path(__file__).resolve().parents[1]


def declared() -> set[str]:
    """The distribution names in ``pyproject.toml``'s ``dependencies``."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower() for spec in project["dependencies"]}


def imported() -> dict[str, set[str]]:
    """Each top-level module name the ``src/nsg`` modules import outside the
    standard library and nsg itself, with the files that import it."""
    found: dict[str, set[str]] = {}
    for path in sorted((ROOT / "src" / "nsg").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for top in (name.split(".")[0] for name in names):
                if top not in sys.stdlib_module_names and top != "nsg":
                    found.setdefault(top, set()).add(path.name)
    return found


def test_every_third_party_import_is_declared():
    # the import names here equal the distribution names
    undeclared = {name: files for name, files in imported().items() if name.lower() not in declared()}
    assert undeclared == {}


def test_the_walk_finds_the_known_imports():
    assert {"numpy", "click", "orjson"} <= set(imported())
