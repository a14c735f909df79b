"""The code-line counter of ``tools/src_lines.py``."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment does not hide the code

# a comment line


class A:
    """Class docstring."""

    x = """a multi-line
string that is code"""

    def f(self):
        """Function docstring."""
        return (1,
                2)
'''


def test_counts_code_outside_docstrings_and_comments():
    # import, class, x = (2 lines), def, return (2 lines)
    assert load_tool().code_lines(SOURCE) == 7


def test_counts_every_package_module(capsys):
    load_tool().main([])
    rows = capsys.readouterr().out.splitlines()
    counts = {name: int(count) for count, name in (row.split() for row in rows)}
    assert {"cli", "scan", "toric", "total"} <= set(counts)
    assert counts["total"] == sum(n for name, n in counts.items() if name != "total")
