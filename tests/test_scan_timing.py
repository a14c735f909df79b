"""A smoke run of ``tools/scan_timing.py``, which runs ``nsg scan`` in fresh
children with ``nsg`` from the ``src`` beside it, so a renamed scan option
shows here rather than in a later measurement."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "scan_timing.py"
SRC = TOOL.parents[1] / "src"
sys.path.insert(0, str(TOOL.parent))
import scan_timing  # noqa: E402

# the benchmark's smoke-size glue outputs, seeds 0 and 1
SMOKE_SHA256 = {
    "0": "29fdb5a70f35432402a6cc976986ffb62dbb92d21b10ace0a9d72be715331e4b",
    "1": "2d69623d9417322b741d10bbf64c67756fce941deb818514c52dc34eb909f8d6",
}


def test_two_sides_report_times_memory_and_digests():
    # the same src on both sides: equal bytes, and every sample timed
    smoke = ["--limit", "3", "--max-multiplicity", "6", "--commands", "2", "--rounds", "2", "--json"]
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--src", str(SRC), *smoke], capture_output=True, text=True, check=True
    )
    result = json.loads(proc.stdout)
    assert result["seeds"] == [0, 1] and result["same_output"]
    for side in ("change", "parent"):
        assert result[side]["sha256"] == SMOKE_SHA256
        assert result[side]["wall_s"] > 0 and result[side]["cpu_s"] > 0 and result[side]["peak_rss_mib"] > 0
        assert all(len(runs) == 2 for runs in result["samples"][side].values())
    assert 0 <= result["change_lower_in"] <= 2


def test_lifting_scans_on_one_side_with_two_workers():
    smoke = ["--limit", "3", "--commands", "1", "--threads", "2", "--rounds", "1"]
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--family", "lifting", *smoke],
        capture_output=True,
        text=True,
        check=True,
    )
    (line,) = proc.stdout.splitlines()
    assert line.startswith("change: wall ")


@pytest.mark.skipif(importlib.util.find_spec("_sha256") is None, reason="no built-in _sha256 module")
def test_child_loads_no_openssl(tmp_path):
    # the peak RSS rows are an nsg process's own: this script hashes the
    # output itself, so the child loads neither hashlib nor _hashlib
    argv = scan_timing.command("gluing", 0, 2, 6, str(tmp_path / "out.jsonl"))
    proc = subprocess.run(
        [argv[0], "-X", "importtime", *argv[1:]],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC), "NSG_THREADS": "1", "SOURCE_DATE_EPOCH": "0"},
    )
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert "nsg.scan" in imported and not {"hashlib", "_hashlib"} & imported
