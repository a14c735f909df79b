"""A smoke run of ``tools/write_timing.py``, which imports ``nsg`` from the
``src`` beside it in a child interpreter, so a renamed or re-signed
``write_jsonl`` shows here rather than in a later measurement."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "write_timing.py"
sys.path.insert(0, str(TOOL.parent))
import write_timing  # noqa: E402


def test_write_run_reports_time_memory_and_digest():
    # 3000 lines spill past one buffer of 1024, so the buckets are written
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--lines", "3000", "--json"], capture_output=True, text=True, check=True
    )
    row = json.loads(proc.stdout)
    assert row["lines"] == 3000
    assert row["bytes"] == 1630890
    assert row["peak_rss_mib"] > 0 and row["making_s"] >= 0
    # the 3000 lines sorted by id, keys stripped (checked once against sorted())
    assert row["sha256"] == "72de76d61119882f3875e17e6fb194315bf0a94bf0fc19c53f418ef73354acf8"


@pytest.mark.skipif(importlib.util.find_spec("_sha256") is None, reason="no built-in _sha256 module")
def test_child_loads_no_openssl(tmp_path):
    # the peak RSS row is an nsg process's own: the ids use the built-in
    # SHA-256 and this script hashes the output itself, so the child loads
    # neither hashlib nor _hashlib
    src = str(TOOL.parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", write_timing.CHILD, src, "10", str(tmp_path / "out.jsonl")],
        capture_output=True,
        text=True,
        check=True,
    )
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert "nsg.scan" in imported and not {"hashlib", "_hashlib"} & imported
