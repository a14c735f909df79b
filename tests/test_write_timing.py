"""A smoke run of ``tools/write_timing.py``, which imports ``nsg`` from the
``src`` beside it in a child interpreter, so a renamed or re-signed
``write_jsonl`` shows here rather than in a later measurement."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "write_timing.py"


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
