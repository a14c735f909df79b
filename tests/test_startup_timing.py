"""A smoke run of ``tools/startup_timing.py``, which starts fresh child
interpreters that import ``nsg`` from the ``src`` beside it, so a renamed
entry point or a broken exit path shows here rather than in a later
measurement."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "startup_timing.py"


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="the thread count needs /proc/self/task")
def test_one_round_reports_every_command():
    argv = [sys.executable, str(TOOL), "--rounds", "1", "--json"]
    proc = subprocess.run(argv, capture_output=True, text=True, check=True)
    rows = json.loads(proc.stdout)
    assert [row["command"] for row in rows] == [
        "python -c pass",
        "import numpy",
        "import numpy, click, orjson",
        "import nsg.cli",
        "nsg --help",
        "nsg --help, no teardown",
        "nsg hunt --max-genus 14",
    ]
    # the modules import nsg.cli adds name the next heavy import
    added = rows[3]["added_modules"]
    assert {"nsg", "nsg.cli", "nsg.scan"} <= set(added) and added == sorted(added)
    assert "numpy" not in added and "click" not in added
    if importlib.util.find_spec("_sha256") is not None:
        assert "_hashlib" not in added and "hashlib" not in added
    for row in rows:
        assert row["rounds"] == 1
        assert row["wall_s"] > 0 and row["cpu_s"] >= 0 and row["peak_rss_mib"] > 0
        assert row["threads"] >= 1
    # the children run without -B, so only the inherited environment sets the flag
    assert {row["dont_write_bytecode"] for row in rows} == {int(bool(os.environ.get("PYTHONDONTWRITEBYTECODE")))}
