"""A smoke run of ``tools/hunt_scaling.py``, which imports ``nsg`` from the
``src`` beside it in a child interpreter, so a renamed tree walk or hunt
shows here rather than in a later measurement."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "hunt_scaling.py"


def test_tree_run_reports_records_and_tree_time():
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--tree", "--json", "8"], capture_output=True, text=True, check=True
    )
    (row,) = json.loads(proc.stdout)
    assert row["genus"] == 8
    assert row["records"] == 155  # A007323 summed over genus 1..8
    assert row["tree_s"] >= 0
