"""A smoke run of ``tools/hunt_scaling.py``, which imports ``nsg`` from the
``src`` beside it in a child interpreter, so a renamed tree walk or hunt
shows here rather than in a later measurement."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "hunt_scaling.py"
sys.path.insert(0, str(TOOL.parent))
import hunt_scaling  # noqa: E402


def test_tree_run_reports_records_and_tree_time():
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--tree", "--json", "8"], capture_output=True, text=True, check=True
    )
    (row,) = json.loads(proc.stdout)
    assert row["genus"] == 8
    assert row["records"] == 155  # A007323 summed over genus 1..8
    assert row["tree_s"] >= 0


def test_no_out_run_reports_checked_findings_and_digest():
    # genus 17 holds the first two violations; the digest is that of the
    # findings and histogram hunt(17) returned when every row was listed
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--no-out", "--json", "17"], capture_output=True, text=True, check=True
    )
    (row,) = json.loads(proc.stdout)
    assert (row["genus"], row["checked"], row["findings"]) == (17, 19814, 2)
    assert row["findings_sha256"] == "a3434071cfb5abe7d8652673b1882fb042132811da67fe99e51573f056bb5793"
    assert row["wall_s"] > 0 and row["cpu_s"] > 0 and row["peak_rss_mib"] > 0
    assert "records" not in row and "sha256" not in row


@pytest.mark.skipif(importlib.util.find_spec("_sha256") is None, reason="no built-in _sha256 module")
def test_child_loads_no_openssl():
    # the peak RSS rows are an nsg process's own: this script hashes the
    # output itself, so the child loads neither hashlib nor _hashlib
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", hunt_scaling.CHILD, str(TOOL.parents[1] / "src"), "6", "", "hunt"],
        capture_output=True,
        text=True,
        check=True,
    )
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert "nsg.scan" in imported and not {"hashlib", "_hashlib"} & imported
