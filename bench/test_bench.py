"""Tests of the benchmark itself: ``pytest bench``.

The smoke runs use ``--smoke``, which shrinks every workload to toy sizes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from spans import SPAN_NAMES, Tracer  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("workload", [w["name"] for w in CONFIG["workloads"]])
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace, section):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in CONFIG[section]}


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for name in ("run.py", "spans.py"):
        shutil.copy(HERE / name, tmp_path / "bench")
    proc = bench("--workload", "grid", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def write_lines(path: Path, records: list[dict]) -> Path:
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


def test_check_rejects_wrong_hash_and_wrong_genus_counts(tmp_path):
    (grid,) = run.workload_commands("grid", 0, smoke=True)
    fake = [{"verification": None}] * grid.records
    with pytest.raises(run.WrongOutput, match="sha256"):
        run.check_output(grid, write_lines(tmp_path / "grid.jsonl", fake))

    hunt = run.Command(("hunt", "--max-genus", "3"), 7, "hunt")
    genera = [1, 2, 2, 3, 3, 3, 2]  # genus 3 has four semigroups, not three
    records = [{"provenance": {"genus": g}} for g in genera]
    with pytest.raises(run.WrongOutput, match="A007323"):
        run.check_output(hunt, write_lines(tmp_path / "hunt.jsonl", records))


def test_check_rejects_unverified_gluings_and_short_outputs(tmp_path):
    glue = run.Command(("scan", "gluing", "--seed", "-1"), 3, "glue")
    records = [{"verification": {"verified": ok}} for ok in (True, True, True)]
    run.check_output(glue, write_lines(tmp_path / "good.jsonl", records))
    with pytest.raises(run.WrongOutput, match="records"):
        run.check_output(glue, write_lines(tmp_path / "short.jsonl", records[:2]))
    records[1] = {"verification": {"verified": False}}
    with pytest.raises(run.WrongOutput, match="1 gluings failed"):
        run.check_output(glue, write_lines(tmp_path / "bad.jsonl", records))
    records[1] = {}
    with pytest.raises(run.WrongOutput, match="without"):
        run.check_output(glue, write_lines(tmp_path / "missing.jsonl", records))


def test_spans_cover_every_binding_and_are_removed_afterwards():
    import nsg.cli
    import nsg.enumeration
    import nsg.scan

    original = nsg.scan.hunt
    tracer = Tracer()
    with tracer.installed():
        assert nsg.cli.run_hunt is nsg.scan.hunt is not original
        s = nsg.cli.new_semigroup([2, 3])
        nsg.enumeration.children(s)
        nsg.scan.gap_bound_check(s)
        nsg.scan.gap_bound_check(s)
    assert nsg.cli.run_hunt is nsg.scan.hunt is original
    assert set(tracer.stats) == set(SPAN_NAMES)
    assert tracer.stats["semigroup.new_semigroup"].calls == 3  # [2, 3] and its two children
    assert tracer.stats["enumeration.children"].calls == 1
    assert tracer.children_out == 2
    assert tracer.stats["ideals.trace_and_residue"].calls == 2
    assert tracer.traced_generators == {(2, 3)}


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    inner = tracer._wrap("ideals.ideal_sum", lambda: time.sleep(0.05), None)

    def outer_body():
        time.sleep(0.02)
        inner()

    outer = tracer._wrap("scan.hunt", outer_body, None)
    start = time.perf_counter()
    outer()
    wall = time.perf_counter() - start
    hunt, ideal_sum = tracer.stats["scan.hunt"], tracer.stats["ideals.ideal_sum"]
    assert 0.02 <= hunt.self_s < 0.045
    assert 0.05 <= ideal_sum.self_s < 0.075
    assert hunt.max_s >= 0.07 and tracer.root_s == hunt.max_s <= wall


def test_a_traced_function_no_module_binds_is_an_error(monkeypatch):
    import nsg.toric

    monkeypatch.delattr(nsg.toric, "buchberger")
    with pytest.raises(LookupError, match="toric.buchberger"):
        with Tracer().installed():
            pass
