import concurrent.futures
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import nsg.cli as cli_mod
import nsg.scan as scan_mod
import nsg.semigroup as semigroup_mod
from nsg.cli import main
from nsg.constructions import glue, lift
from nsg.errors import InputTooLarge, InvalidSetting
from nsg.ideals import trace_and_residue
from nsg.scan import (
    ScanSummary,
    build_record,
    canonical_json,
    hunt,
    info_payload,
    random_gluing_spec,
    random_lift,
    random_semigroup,
    record_id,
    scan_family,
)
from nsg.semigroup import new_semigroup

from oracles import brute_pf, dp_membership, gap_sets_by_genus, replaced, tree_by_genus, window
from strategies import keyed_lines, semigroups


@pytest.fixture
def runner():
    return CliRunner()


class TestRecordBasics:
    def test_record_id_is_order_insensitive(self):
        assert record_id([7, 3, 5]) == record_id([3, 5, 7])
        assert record_id([3, 5, 7]) != record_id([2, 3])

    def test_record_id_pinned(self):
        assert record_id([3, 5, 7]) == "6661ae91f8bc6666"

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**64), max_size=12))
    def test_record_id_matches_hashlib(self, generators):
        # hashlib is the oracle of the built-in SHA-256 that record_id uses
        key = ",".join(map(str, sorted(generators)))
        assert record_id(generators) == hashlib.sha256(key.encode()).hexdigest()[:16]

    def test_info_payload_round_trip(self):
        s = new_semigroup([3, 5, 7])
        payload = json.loads(canonical_json(info_payload(s)))
        assert payload["residue"] == 1
        assert payload["question_holds"] is True
        assert payload["pf"] == [2, 4]

    def test_no_floats_anywhere(self):
        payload = info_payload(new_semigroup([4, 5, 7]), toric=True)

        def walk(obj):
            assert not isinstance(obj, float)
            if isinstance(obj, dict):
                for v in obj.values():
                    walk(v)
            elif isinstance(obj, list):
                for v in obj:
                    walk(v)

        walk(payload)


class TestRandomGeneration:
    def test_random_semigroup_is_seeded(self):
        a = random_semigroup(random.Random(5), 10)
        b = random_semigroup(random.Random(5), 10)
        assert a == b
        assert 3 <= a.multiplicity <= 10
        assert not a.was_reduced

    def test_random_gluing_spec_is_valid_and_seeded(self):
        a = random_gluing_spec(random.Random(11), 9)
        b = random_gluing_spec(random.Random(11), 9)
        assert (a.left, a.right, a.lam, a.mu) == (b.left, b.right, b.lam, b.mu)


def scan_records(tmp_path, family: str, **kwargs) -> tuple[list[dict], ScanSummary]:
    """``scan_family(family, ..., out)`` into a new file under ``tmp_path``,
    the records it wrote there and the summary it returned."""
    out = tmp_path / f"scan{len(list(tmp_path.glob('scan*.jsonl')))}.jsonl"
    summary = scan_family(family, out=str(out), **kwargs)
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert summary.records == len(records)
    return records, summary


class TestScanFamilies:
    def test_records_sorted_and_reproducible(self, tmp_path):
        first, _ = scan_records(tmp_path, "random", seed=3, limit=20, max_multiplicity=8)
        second, _ = scan_records(tmp_path, "random", seed=3, limit=20, max_multiplicity=8)
        assert first == second
        ids = [r["id"] for r in first]
        assert ids == sorted(ids)

    def test_round_trip_recomputation(self, tmp_path):
        for record in scan_records(tmp_path, "random", seed=9, limit=10, max_multiplicity=8)[0]:
            s = new_semigroup(record["generators"])
            assert record["id"] == record_id(s.generators)
            assert record["invariants_json"] == info_payload(s)

    def test_arithmetic_scan_residues(self, tmp_path):
        records, _ = scan_records(tmp_path, "arithmetic", seed=0, limit=None, max_multiplicity=8)
        assert records
        for r in records:
            assert r["invariants_json"]["residue"] <= 1
            assert r["invariants_json"]["closure"]["acm"] is True
            assert r["provenance"]["kind"] == "arithmetic"

    def test_gluing_scan_verifies(self, tmp_path):
        records, summary = scan_records(tmp_path, "gluing", seed=42, limit=25, max_multiplicity=10, verify=True)
        assert len(records) == 25
        assert summary.verification_failures == 0
        for r in records:
            assert r["verification"]["verified"] is True
            assert set(r["provenance"]) == {"kind", "parents", "lambda", "mu"}

    def test_summary_counts_the_written_records(self, tmp_path):
        # oracle: the five counts taken over the records read back
        records, summary = scan_records(tmp_path, "lifting", seed=1, limit=40, max_multiplicity=8, verify=True)
        inv = [r["invariants_json"] for r in records]
        assert summary == ScanSummary(
            records=len(records),
            gorenstein=sum(i["gorenstein"] for i in inv),
            nearly_gorenstein=sum(i["nearly_gorenstein"] for i in inv),
            question_holds=sum(i["question_holds"] for i in inv),
            verification_failures=sum(not r["verification"]["verified"] for r in records),
        )
        assert 0 < summary.gorenstein < summary.nearly_gorenstein < summary.records

    def test_construction_provenance_names_the_drawn_instances(self, tmp_path):
        rng = random.Random(42)
        specs = [random_gluing_spec(rng, 8) for _ in range(10)]
        expected = sorted(
            (list(glue(s).generators), [record_id(s.left.generators), record_id(s.right.generators)], s.lam, s.mu)
            for s in specs
        )
        records, _ = scan_records(tmp_path, "gluing", seed=42, limit=10, max_multiplicity=8)
        got = sorted((r["generators"], *(r["provenance"][key] for key in ("parents", "lambda", "mu"))) for r in records)
        assert got == expected

        rng = random.Random(42)
        lifts = [random_lift(rng, 8) for _ in range(10)]
        expected = sorted((list(lift(base, k).generators), record_id(base.generators), k) for base, k in lifts)
        records, _ = scan_records(tmp_path, "lifting", seed=42, limit=10, max_multiplicity=8)
        got = sorted((r["generators"], r["provenance"]["parent"], r["provenance"]["k"]) for r in records)
        assert got == expected

    def test_gluing_scan_builds_each_gluing_once(self, tmp_path, monkeypatch):
        events = []
        gluing_worker = scan_mod._gluing_worker

        def counting_glue(spec):
            built = glue(spec)
            events.append("glue")
            return built

        def counting_worker(args):
            events.append("record")
            return gluing_worker(args)

        monkeypatch.setattr(scan_mod, "glue", counting_glue)
        monkeypatch.setattr(scan_mod, "_gluing_worker", counting_worker)
        records, _ = scan_records(tmp_path, "gluing", seed=42, limit=10, max_multiplicity=8, verify=True)
        # one build per record, drawn just before it: no drawn gluing waits in a list
        assert len(records) == 10
        assert events == ["glue", "record"] * 10

    def test_lifting_scan_verifies(self, tmp_path):
        _, summary = scan_records(tmp_path, "lifting", seed=42, limit=25, max_multiplicity=10, verify=True)
        assert summary.verification_failures == 0

    @pytest.mark.parametrize("family", ["random", "arithmetic", "gluing", "lifting"])
    def test_worker_pool_output_identical(self, tmp_path, monkeypatch, family):
        # the pooled workers receive pickled semigroups and gluing specs
        baseline = scan_records(tmp_path, family, seed=5, limit=12, max_multiplicity=8, verify=True)
        monkeypatch.setenv("NSG_THREADS", "3")
        pooled = scan_records(tmp_path, family, seed=5, limit=12, max_multiplicity=8, verify=True)
        assert len(baseline[0]) == 12
        assert baseline == pooled

    def test_pool_has_at_most_one_worker_per_cpu(self, tmp_path, monkeypatch):
        # a stand-in pool that maps inline: no real pool of this size is started
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        def scans():
            return [scan_records(tmp_path, "random", seed=5, limit=n, max_multiplicity=8) for n in (12, 3)]

        baseline = scans()
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setenv("NSG_THREADS", "20000")
        assert scans() == baseline
        assert sizes == [4, 3]

    def test_cli_import_leaves_the_process_pool_out(self):
        # the pool is imported only when a scan runs more than one worker
        src = str(Path(scan_mod.__file__).parents[1])
        code = "import sys, nsg.cli; print('concurrent.futures.process' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": src}
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
        assert result.stdout == "False\n"

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
    def test_import_starts_no_blas_thread_pool(self):
        # nsg calls no BLAS routine, so its import leaves numpy's OpenBLAS one
        # thread and the environment as it found it; a caller's setting wins
        blas = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
        env = {name: value for name, value in os.environ.items() if name not in blas}
        env["PYTHONPATH"] = str(Path(scan_mod.__file__).parents[1])
        code = "import os; env = dict(os.environ); import {}; print(len(os.listdir('/proc/self/task')), env == os.environ)"

        def threads(module, **extra):
            argv = [sys.executable, "-c", code.format(module)]
            return subprocess.run(argv, capture_output=True, text=True, check=True, env={**env, **extra}).stdout

        assert threads("nsg") == "1 True\n"
        assert threads("nsg", OPENBLAS_NUM_THREADS="2") == threads("numpy", OPENBLAS_NUM_THREADS="2")

    def test_pool_keeps_few_chunks_in_flight(self, monkeypatch):
        # a stand-in pool that maps inline and counts the chunks submitted
        # but not yet read; the items are drawn only as chunks are submitted
        in_flight, peak, drawn = [], [], []

        class Future:
            def __init__(self, value):
                self.value = value

            def result(self):
                in_flight.remove(self)
                return self.value

        class CountingPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                in_flight.append(Future(fn(*args)))
                peak.append(len(in_flight))
                return in_flight[-1]

        def items():
            for item in range(1000):
                drawn.append(item)
                yield item

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setenv("NSG_THREADS", "2")
        bound = 2 * scan_mod._AHEAD
        out = []
        for value in scan_mod._pmap(str, items(), 1000):
            out.append(value)
            assert len(drawn) - len(out) < (bound + 1) * scan_mod._CHUNK
        assert out == [str(item) for item in range(1000)]
        assert max(peak) == bound

    @pytest.mark.parametrize("family", ["random", "arithmetic", "gluing", "lifting"])
    def test_negative_limit_refused(self, tmp_path, family):
        out = tmp_path / "scan.jsonl"
        with pytest.raises(ValueError):
            scan_family(family, seed=0, limit=-1, max_multiplicity=5, out=str(out))
        assert not out.exists()

    @pytest.mark.parametrize("seed", [-(2**63) - 1, 2**64])
    def test_seed_outside_64_bits_refused(self, tmp_path, seed):
        out = tmp_path / "scan.jsonl"
        with pytest.raises(ValueError, match=r"seed must lie in \[-2\*\*63, 2\*\*64\)"):
            scan_family("random", seed=seed, limit=1, max_multiplicity=5, out=str(out))
        assert not out.exists()

    @pytest.mark.parametrize("seed", [-(2**63), 2**64 - 1])
    def test_seed_at_the_64_bit_edges_is_written(self, tmp_path, seed):
        records, _ = scan_records(tmp_path, "random", seed=seed, limit=2, max_multiplicity=5)
        assert [r["seed"] for r in records] == [seed, seed]

    @pytest.mark.parametrize("value", ["abc", "1.5", "", str(-(2**63) - 1), str(2**64)])
    def test_bad_source_date_epoch_refused(self, tmp_path, monkeypatch, value):
        # read once per run, before anything is drawn: an empty scan is refused too
        monkeypatch.setenv("SOURCE_DATE_EPOCH", value)
        out = tmp_path / "out.jsonl"
        for limit in (0, 1):
            with pytest.raises(InvalidSetting, match=f"SOURCE_DATE_EPOCH must be an integer .* got {value!r}"):
                scan_family("random", seed=0, limit=limit, max_multiplicity=5, out=str(out))
        for target in (None, str(out)):
            with pytest.raises(InvalidSetting, match=f"SOURCE_DATE_EPOCH must be an integer .* got {value!r}"):
                hunt(3, target)
        assert not out.exists()

    @pytest.mark.parametrize("value", [-(2**63), 2**64 - 1])
    def test_source_date_epoch_at_the_64_bit_edges(self, tmp_path, monkeypatch, value):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", str(value))
        records, _ = scan_records(tmp_path, "random", seed=0, limit=2, max_multiplicity=5)
        assert [r["timestamp"] for r in records] == [value, value]
        assert {r["timestamp"] for r in hunt_records(tmp_path, 3)[0]} == {value}

    def test_unknown_family_refused(self, tmp_path):
        out = tmp_path / "scan.jsonl"
        with pytest.raises(ValueError, match="unknown family 'spiral'"):
            scan_family("spiral", seed=0, limit=1, max_multiplicity=5, out=str(out))
        assert not out.exists()

    def test_records_are_not_held(self, tmp_path, monkeypatch):
        # four runs' worth of records: holding every record until the end
        # peaks near 1.7 MiB here, the stream near 0.16 MiB
        monkeypatch.setattr(scan_mod, "_RUN_LINES", 256)
        tracemalloc.start()
        try:
            scan_family("random", seed=0, limit=4 * scan_mod._RUN_LINES, max_multiplicity=3, out=str(tmp_path / "s.jsonl"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**19


@pytest.fixture
def run_dir(tmp_path, monkeypatch):
    """An empty TMPDIR for the temporary run files."""
    runs = tmp_path / "runs"
    runs.mkdir()
    monkeypatch.setenv("TMPDIR", str(runs))
    monkeypatch.setattr(tempfile, "tempdir", None)  # read TMPDIR again
    assert tempfile.gettempdir() == str(runs)
    return runs


def hunt_records(tmp_path, max_genus: int) -> tuple[list[dict], list[dict], dict[int, int]]:
    """``hunt(max_genus, out)`` and the records it wrote to ``out``."""
    out = tmp_path / "hunt.jsonl"
    checked, findings, histogram = hunt(max_genus, str(out))
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert checked == len(records)
    return records, findings, histogram


class TestHunt:
    def test_counts_match_known_sequence(self, tmp_path):
        records, findings, histogram = hunt_records(tmp_path, 8)
        assert findings == []
        per_genus = {}
        for r in records:
            per_genus[r["provenance"]["genus"]] = per_genus.get(r["provenance"]["genus"], 0) + 1
        assert [per_genus[g] for g in range(1, 9)] == [1, 2, 4, 7, 12, 23, 39, 67]
        assert all(slack >= 0 for slack in histogram)

    def test_counts_match_gap_set_enumeration(self, tmp_path):
        # independent brute force over raw gap sets for small genus
        records, _, _ = hunt_records(tmp_path, 6)
        per_genus = {}
        for r in records:
            g = r["provenance"]["genus"]
            per_genus.setdefault(g, set()).add(tuple(r["invariants_json"]["gaps"]))
        for genus in range(1, 7):
            expected = {tuple(sorted(gs)) for gs in gap_sets_by_genus(genus)}
            assert per_genus[genus] == expected

    def test_records_carry_slack(self, tmp_path):
        records, _, _ = hunt_records(tmp_path, 4)
        for r in records:
            inv = r["invariants_json"]
            assert inv["slack"] == inv["gap_bound"] - inv["residue"]
            assert inv["slack"] >= 0

    def test_stream_matches_one_by_one_records(self, tmp_path, monkeypatch):
        # oracle: every record built from its own info_payload, sorted by id
        # and appended after what the file already held
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        stamp = {"seed": 0, "timestamp": 0}
        expected = sorted(
            (
                build_record(
                    s.generators,
                    {"kind": "hunt", "genus": genus},
                    stamp,
                    {**info_payload(s), "slack": trace_and_residue(s).slack},
                )
                for genus, level in tree_by_genus(10)
                for s in level
            ),
            key=lambda r: r["id"],
        )
        out = tmp_path / "hunt.jsonl"
        out.write_text("kept\n")
        checked, findings, histogram = hunt(10, str(out))
        assert out.read_text().splitlines() == ["kept", *(canonical_json(r) for r in expected)]
        assert (checked, findings) == (len(expected), [])
        assert histogram == dict(sorted(Counter(r["invariants_json"]["slack"] for r in expected).items()))
        assert hunt(10) == (checked, findings, histogram)

    @pytest.mark.parametrize(
        "genus, jsonl",
        [
            (12, "6bc6408f278199e277329ff14f4cc000389efef29469b545ba6560f9203f4725"),
            (14, "05f039b0882db40703e41aff99e641e3bc33672d1e5e5efddce427ce34b5d6a7"),
        ],
        ids=["genus12", "genus14"],
    )
    def test_batches_leave_the_output_unchanged(self, tmp_path, monkeypatch, genus, jsonl):
        # one block per array stage (rows 1), a few rows, the default and the
        # whole multiplicity chain; the hashes are those of test_hunt_output_pinned
        # and of the benchmark's hunt command
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        results = []
        for rows in (1, 3, scan_mod._HUNT_ROWS, 10**9):
            monkeypatch.setattr(scan_mod, "_HUNT_ROWS", rows)
            out = tmp_path / f"hunt{rows}.jsonl"
            written = hunt(genus, str(out))
            assert hashlib.sha256(out.read_bytes()).hexdigest() == jsonl
            assert hunt(genus) == written
            results.append(written)
        assert results[1:] == results[:-1]

    @pytest.mark.parametrize("rows", [1, 3, 256])
    def test_batches_stack_whole_blocks_of_one_multiplicity(self, monkeypatch, rows):
        from nsg.enumeration import _walk

        monkeypatch.setattr(scan_mod, "_HUNT_ROWS", rows)
        blocks = [(apery, mask) for _, apery, mask in _walk(11)]
        batches = list(scan_mod._hunt_batches(11))
        for part in (0, 1):  # every row once, in walk order
            flat = [np.concatenate([b[part].ravel() for b in bs]) for bs in (blocks, batches)]
            assert np.array_equal(*flat)
        # each batch is a run of whole blocks: one block, or at most ``rows``
        # rows that the next block of its multiplicity would push past rows
        i = 0
        for n, (apery, _) in enumerate(batches):
            j = i + 1
            while sum(len(a) for a, _ in blocks[i:j]) < len(apery):
                j += 1
            assert sum(len(a) for a, _ in blocks[i:j]) == len(apery)
            assert j == i + 1 or len(apery) <= rows
            if j < len(blocks) and blocks[j][0].shape[1] == apery.shape[1]:
                assert len(apery) + len(blocks[j][0]) > rows
            i = j
        assert i == len(blocks)

    def test_findings_without_out_match_the_written_ones(self, tmp_path, monkeypatch):
        # genus 17 holds the first violations; without out only they are listed
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        records, findings, histogram = hunt_records(tmp_path, 17)
        assert findings and hunt(17) == (len(records), findings, histogram)
        assert findings == sorted((r for r in records if r["invariants_json"]["slack"] < 0), key=scan_mod._keyed)
        for r in records:
            assert r["provenance"]["genus"] == r["invariants_json"]["genus"]

    def test_no_run_file_is_left(self, tmp_path, monkeypatch, run_dir):
        hunt(6, str(tmp_path / "hunt.jsonl"))
        # a scan of 300 records in buffers of 3 spills 297 lines to the buckets
        monkeypatch.setattr(scan_mod, "_RUN_LINES", 3)
        scan_family("random", seed=2, limit=300, max_multiplicity=3, out=str(tmp_path / "scan.jsonl"))
        assert list(run_dir.iterdir()) == []

    def test_records_are_not_held(self, tmp_path):
        # holding every record until the end peaks near 2.9 MiB here, and
        # holding every encoded line near 1.1 MiB; the stream holds at most
        # one run of lines and one batch of rows and peaks near 0.94 MiB
        tracemalloc.start()
        try:
            hunt(12, str(tmp_path / "hunt.jsonl"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def written(tmp_path, write) -> bytes:
    """The bytes that ``write(out)`` appends to a new file ``out``."""
    out = tmp_path / f"out{len(list(tmp_path.glob('out*.jsonl')))}.jsonl"
    write(str(out))
    return out.read_bytes()


def keyed(ident: str, value) -> str:
    """A ``_keyed`` line with the given id."""
    return f"{ident} {canonical_json(value)}\n"


class TestSortedRuns:
    # max_multiplicity 3 draws one semigroup many times; in the lifting scan
    # one semigroup also comes from different bases, so one id has
    # different records and the canonical JSON breaks the tie
    WRITES = {
        "hunt": lambda out: hunt(8, out),
        "scan": lambda out: scan_family("random", seed=2, limit=300, max_multiplicity=3, out=out),
        "lifting": lambda out: scan_family("lifting", seed=2, limit=300, max_multiplicity=3, out=out),
    }

    @pytest.mark.parametrize("run_lines", [3], ids=["spilled"])
    @pytest.mark.parametrize("command, threads", [("hunt", "1"), ("scan", "1"), ("scan", "2"), ("lifting", "1")])
    def test_runs_leave_the_bytes_unchanged(self, tmp_path, monkeypatch, command, threads, run_lines):
        write = self.WRITES[command]
        expected = written(tmp_path, write)
        lines = expected.splitlines()
        assert len(lines) > 100  # more than 33 buffers of 3 lines
        assert lines == sorted(lines, key=lambda line: (json.loads(line)["id"], line))
        if command == "lifting":
            assert len({json.loads(line)["id"] for line in lines}) < len(set(lines))
        monkeypatch.setenv("NSG_THREADS", threads)
        monkeypatch.setattr(scan_mod, "_RUN_LINES", run_lines)
        assert written(tmp_path, write) == expected

    def test_buckets_bound_the_open_files(self, tmp_path, monkeypatch):
        # 155 lines in buffers of 3 spill 153 lines, one temporary file per
        # first id digit: at most 16 files, each opened once, where spilling
        # each buffer as its own run would open 51
        real = tempfile.TemporaryFile
        opened = []

        def counting(*args, **kwargs):
            opened.append(real(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(scan_mod, "_RUN_LINES", 3)
        monkeypatch.setattr(tempfile, "TemporaryFile", counting)
        hunt(8, str(tmp_path / "hunt.jsonl"))
        ids = [json.loads(line)["id"] for line in (tmp_path / "hunt.jsonl").read_text().splitlines()]
        assert len(opened) == len({i[0] for i in ids}) == 16
        assert all(f.closed for f in opened)

    # every id of the first starts with 7, so one bucket takes every spilled
    # line; the second repeats 48 ids with different JSON
    SYNTHETIC = {
        "one-digit": [keyed("7" + record_id([n])[1:], {"n": n}) for n in random.Random(1).sample(range(10**6), 100)],
        "repeated-ids": [keyed(record_id([n % 48]), {"n": n}) for n in random.Random(2).sample(range(300), 300)],
        "empty": [],
    }

    @pytest.mark.parametrize("run_lines", [1, 3, 1024])
    @pytest.mark.parametrize("case", SYNTHETIC)
    def test_writer_appends_sorted_lines_without_keys(self, tmp_path, monkeypatch, run_dir, case, run_lines):
        lines = self.SYNTHETIC[case]
        monkeypatch.setattr(scan_mod, "_RUN_LINES", run_lines)
        out = tmp_path / "out.jsonl"
        out.write_text("kept\n")
        scan_mod.write_jsonl(str(out), iter(lines))
        assert out.read_text() == "kept\n" + "".join(line[17:] for line in sorted(lines))
        assert list(run_dir.iterdir()) == []

    def test_empty_write_creates_the_file(self, tmp_path):
        out = tmp_path / "out.jsonl"
        scan_mod.write_jsonl(str(out), iter([]))
        assert out.read_bytes() == b""

    @settings(max_examples=60, deadline=None)
    @given(keyed_lines(), st.integers(0, 400) | st.just(scan_mod._HELD_BYTES))
    def test_writer_sorts_drawn_lines(self, lines, held):
        # a small held size splits the buckets, down to one id's lines
        patches = mock.patch.object(scan_mod, "_RUN_LINES", 3), mock.patch.object(scan_mod, "_HELD_BYTES", held)
        with tempfile.TemporaryDirectory() as tmp, patches[0], patches[1]:
            out = Path(tmp) / "out.jsonl"
            out.write_text("kept\n")
            scan_mod.write_jsonl(str(out), iter(lines))
            assert out.read_text() == "kept\n" + "".join(line[17:] for line in sorted(lines))

    # 2000 distinct ids (3.2-4.2 kB of lines per first digit, at most 508 B
    # per two digits and 149 B per three), and 3 ids repeated 40 times with
    # different JSON
    SPLITS = {
        "distinct": [keyed(record_id([n]), {"n": n}) for n in random.Random(3).sample(range(10**6), 2000)],
        "repeated": [keyed(record_id([n % 3]), {"n": n}) for n in random.Random(4).sample(range(120), 120)],
    }

    @pytest.mark.parametrize(
        "case, held, split_depths",
        [("distinct", 1500, {1}), ("distinct", 200, {1, 2}), ("repeated", 0, set(range(1, 16)))],
        ids=["depth-1", "depth-2", "depth-16"],
    )
    def test_large_buckets_are_split(self, tmp_path, monkeypatch, run_dir, case, held, split_depths):
        # a bucket above _HELD_BYTES is split by the next id digit, down to
        # the 16th, where one id's lines are sorted in memory
        lines = self.SPLITS[case]
        monkeypatch.setattr(scan_mod, "_RUN_LINES", 3)
        expected = written(tmp_path, lambda out: scan_mod.write_jsonl(out, iter(lines)))
        assert expected.decode() == "".join(line[17:] for line in sorted(lines))
        spill, depths, opened = scan_mod._spill, set(), []
        real = tempfile.TemporaryFile

        def recording(lines, depth, parts, stack):
            depths.add(depth)
            spill(lines, depth, parts, stack)

        def counting(*args, **kwargs):
            opened.append(real(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(scan_mod, "_spill", recording)
        monkeypatch.setattr(tempfile, "TemporaryFile", counting)
        monkeypatch.setattr(scan_mod, "_HELD_BYTES", held)
        assert written(tmp_path, lambda out: scan_mod.write_jsonl(out, iter(lines))) == expected
        assert depths == {0} | split_depths
        assert all(f.closed for f in opened)
        assert list(run_dir.iterdir()) == []

    @pytest.mark.parametrize("command", ["hunt", "lifting"])
    def test_split_buckets_leave_the_bytes_unchanged(self, tmp_path, monkeypatch, command):
        # hunt(8)'s buckets split at depths 1 and 2; the lifting scan's
        # repeated ids split down to depth 15
        write = self.WRITES[command]
        expected = written(tmp_path, write)
        monkeypatch.setattr(scan_mod, "_RUN_LINES", 3)
        monkeypatch.setattr(scan_mod, "_HELD_BYTES", 1000)
        assert written(tmp_path, write) == expected

    def test_one_run_opens_no_file(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a write under the cap spilled a run")

        monkeypatch.setattr(tempfile, "TemporaryFile", refuse)
        scan_family("random", seed=0, limit=scan_mod._RUN_LINES, max_multiplicity=3, out=str(tmp_path / "s.jsonl"))

    def test_failed_worker_leaves_no_file(self, tmp_path, monkeypatch, run_dir):
        random_worker = scan_mod._random_worker
        built = []

        def failing_worker(args):
            if len(built) == 20:  # after six buffers of 3 were spilled
                raise RuntimeError("worker failed")
            built.append(args)
            return random_worker(args)

        spilled = []
        real = tempfile.TemporaryFile

        def recording(*args, **kwargs):
            spilled.append(real(*args, **kwargs))
            return spilled[-1]

        monkeypatch.setattr(scan_mod, "_RUN_LINES", 3)
        monkeypatch.setattr(scan_mod, "_random_worker", failing_worker)
        monkeypatch.setattr(tempfile, "TemporaryFile", recording)
        out = tmp_path / "scan.jsonl"
        with pytest.raises(RuntimeError, match="worker failed"):
            scan_family("random", seed=0, limit=50, max_multiplicity=8, out=str(out))
        # one bucket per first id digit of the 18 spilled lines
        assert len(spilled) == len({record_id(s.generators)[0] for s, _ in built[:18]}) == 10
        assert all(f.closed for f in spilled)
        assert list(run_dir.iterdir()) == []
        assert not out.exists()


class TestCli:
    def test_info_table(self, runner):
        result = runner.invoke(main, ["info", "2,3"])
        assert result.exit_code == 0
        assert "gorenstein: yes" in result.output

    def test_info_json(self, runner):
        result = runner.invoke(main, ["info", "3,5,7", "--json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["residue"] == 1 and payload["question_holds"] is True

    def test_info_invalid_gcd(self, runner):
        result = runner.invoke(main, ["info", "2,4"])
        assert result.exit_code == 2
        assert "gcd" in result.output

    def test_info_multiplicity_too_large(self, runner, monkeypatch):
        def refuse(gens):
            raise AssertionError("the Apery table must not be built")

        monkeypatch.setattr(semigroup_mod, "_apery_table", refuse)
        result = runner.invoke(main, ["info", "100000007,100000037"])
        assert result.exit_code == 2
        assert result.output.splitlines()[-1] == "Error: multiplicity 100000007 exceeds the size limit 10000000"

    def test_info_frobenius_too_large(self, runner):
        result = runner.invoke(main, ["info", "20011,1000000007"])
        assert result.exit_code == 2
        assert result.output.splitlines()[-1] == (
            "Error: Frobenius number 20010000120059 exceeds the size limit 10000000"
        )

    def test_info_two_generator_frobenius_refused_before_the_table(self, runner, monkeypatch):
        # F = ab - a - b for two coprime generators, so no table is needed
        def refuse(gens):
            raise AssertionError("the Apery table must not be built")

        monkeypatch.setattr(semigroup_mod, "_apery_table", refuse)
        with pytest.raises(InputTooLarge, match="Frobenius number 99999810000089 exceeds"):
            new_semigroup([9999992, 9999991])
        result = runner.invoke(main, ["info", "9999991,9999992"])
        assert result.exit_code == 2
        assert result.output.splitlines()[-1] == (
            "Error: Frobenius number 99999810000089 exceeds the size limit 10000000"
        )

    def test_info_parse_error(self, runner):
        result = runner.invoke(main, ["info", "3,x"])
        assert result.exit_code == 2

    def test_info_toric(self, runner):
        result = runner.invoke(main, ["info", "4,5,7", "--json", "--toric"])
        payload = json.loads(result.output)
        assert payload["closure"]["projective_ng"] is True

    def test_info_toric_small_embedding(self, runner):
        result = runner.invoke(main, ["info", "2,3", "--toric"])
        assert result.exit_code == 2

    def test_glue_verify(self, runner):
        result = runner.invoke(
            main, ["glue", "3,5,7", "2,3", "--lambda", "10", "--mu", "7", "--verify"]
        )
        assert result.exit_code == 0
        assert "verified: yes" in result.output

    def test_glue_invalid(self, runner):
        result = runner.invoke(main, ["glue", "2,3", "2,3", "--lambda", "2", "--mu", "5"])
        assert result.exit_code == 2
        assert "generator" in result.output

    def test_glue_verification_failure_exits_3(self, runner, monkeypatch):
        real = cli_mod.verify_construction

        def corrupted(predicted, built):
            outcome = real(predicted, built)
            return replaced(outcome, discrepancies=("residue",))

        monkeypatch.setattr(cli_mod, "verify_construction", corrupted)
        result = runner.invoke(
            main, ["glue", "3,5,7", "2,3", "--lambda", "10", "--mu", "7", "--verify"]
        )
        assert result.exit_code == 3

    def test_lift_verify(self, runner):
        result = runner.invoke(main, ["lift", "3,5,7", "-k", "2", "--verify", "--json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["verified"] is True
        assert payload["invariants_json"]["residue"] == 2

    def test_lift_invalid_k(self, runner):
        result = runner.invoke(main, ["lift", "3,5,7", "-k", "3"])
        assert result.exit_code == 2

    def test_toric_command(self, runner):
        result = runner.invoke(main, ["toric", "4,6,7", "--json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["hypothesis"] is False and "projective_ng" not in payload
        elements = payload["gb"]["elements"]
        assert {tuple(b["plus"]) for b in elements} == {(3, 0, 0), (2, 1, 0), (0, 3, 0)}
        assert all(set(b) == {"plus", "minus", "homogeneous"} for b in elements)
        assert payload["gb"]["order"]["kind"] == "degrevlex"

    @pytest.mark.parametrize(
        "args, table, line",
        [
            (
                ["glue", "3,5,7", "2,3", "--lambda", "10", "--mu", "7"],
                "generators: 20, 21, 30, 35, 49\npredicted:\n  frobenius: 108\n  pf: 94, 108\n"
                "  trace_min_gens: 21, 35, 49\n  residue: 7\n  gap_bound: 7\n",
                '{"generators":[20,21,30,35,49],"predicted":{"frobenius":108,"gap_bound":7,"pf":[94,108],'
                '"residue":7,"trace_min_gens":[21,35,49]}}\n',
            ),
            (
                ["lift", "3,5,7", "-k", "2"],
                "generators: 3, 10, 14\npredicted:\n  frobenius: 11\n  pf: 7, 11\n"
                "  trace_min_gens: 6, 10, 14\n  residue: 2\n  gap_bound: 2\n",
                '{"generators":[3,10,14],"predicted":{"frobenius":11,"gap_bound":2,"pf":[7,11],'
                '"residue":2,"trace_min_gens":[6,10,14]}}\n',
            ),
        ],
        ids=["glue", "lift"],
    )
    def test_construction_without_verify_prints_the_prediction(self, runner, args, table, line):
        for argv, expected in ((args, table), (args + ["--json"], line)):
            result = runner.invoke(main, argv)
            assert result.exit_code == 0
            assert result.stdout == expected

    def test_toric_table(self, runner):
        result = runner.invoke(main, ["toric", "4,6,7"])
        assert result.exit_code == 0
        assert result.stdout == "acm: yes\nhypothesis: no\napplicable: no\naffine_ng: yes\nbasis elements: 3\n"

    def test_scan_writes_jsonl(self, runner, tmp_path):
        out = tmp_path / "scan.jsonl"
        result = runner.invoke(
            main,
            ["scan", "gluing", "--seed", "42", "--limit", "10", "--max-multiplicity", "8", "--out", str(out), "--verify"],
        )
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 10
        assert "verification_failures 0" in result.output

    def test_scan_byte_identical(self, runner, tmp_path):
        args = ["scan", "random", "--seed", "7", "--limit", "15", "--out"]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert runner.invoke(main, args + [str(a)]).exit_code == 0
        assert runner.invoke(main, args + [str(b)]).exit_code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_scan_empty(self, runner, tmp_path):
        for family in ("random", "arithmetic", "gluing", "lifting"):
            out = tmp_path / f"{family}.jsonl"
            result = runner.invoke(main, ["scan", family, "--seed", "7", "--limit", "0", "--out", str(out)])
            assert result.exit_code == 0
            assert out.read_text() == ""
            assert "0 records" in result.output

    @pytest.mark.parametrize("family", ["arithmetic", "random"])
    def test_scan_negative_limit_exits_2(self, runner, tmp_path, family):
        out = tmp_path / "scan.jsonl"
        result = runner.invoke(main, ["scan", family, "--max-multiplicity", "5", "--limit", "-1", "--out", str(out)])
        assert result.exit_code == 2
        assert "--limit" in result.output
        assert not out.exists()

    def test_scan_limit_defaults_per_family(self, runner, tmp_path):
        # the whole n1 <= 9 grid, not the first 100 of its 101 instances
        for family, records in (("arithmetic", 101), ("random", 100)):
            out = tmp_path / f"{family}.jsonl"
            result = runner.invoke(main, ["scan", family, "--max-multiplicity", "9", "--out", str(out)])
            assert result.exit_code == 0
            assert len(out.read_text().splitlines()) == records

    def test_scan_io_error_exits_4(self, runner, tmp_path):
        out = tmp_path / "nope" / "scan.jsonl"
        result = runner.invoke(main, ["scan", "random", "--seed", "1", "--limit", "2", "--out", str(out)])
        assert result.exit_code == 4
        assert result.stderr == f"cannot write {out}: [Errno 2] No such file or directory: {str(out)!r}\n"
        assert result.stdout == ""

    def test_hunt_io_error_exits_4(self, runner, tmp_path):
        out = tmp_path / "nope" / "h.jsonl"
        result = runner.invoke(main, ["hunt", "--max-genus", "3", "--out", str(out)])
        assert result.exit_code == 4
        assert result.stderr == f"cannot write {out}: [Errno 2] No such file or directory: {str(out)!r}\n"
        assert result.stdout == ""

    def test_hunt_single_genus(self, runner):
        result = runner.invoke(main, ["hunt", "--max-genus", "1"])
        assert result.exit_code == 0
        assert "checked 1 semigroups" in result.output
        assert "no violations" in result.output
        assert result.stderr == ""

    def test_hunt_writes_records(self, runner, tmp_path):
        out = tmp_path / "hunt.jsonl"
        result = runner.invoke(main, ["hunt", "--max-genus", "4", "--out", str(out)])
        assert result.exit_code == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 1 + 2 + 4 + 7
        assert all(r["invariants_json"]["slack"] >= 0 for r in rows)

    def test_hunt_output_pinned(self, runner, tmp_path, monkeypatch):
        # sha256 of the JSONL and of stdout, recorded when every semigroup
        # was traced on its own; tracing each genus level in one batch must
        # not change a byte
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        out = tmp_path / "hunt.jsonl"
        result = runner.invoke(main, ["hunt", "--max-genus", "12", "--out", str(out)])
        assert result.exit_code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "6bc6408f278199e277329ff14f4cc000389efef29469b545ba6560f9203f4725"
        )
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == (
            "eb31b33a50680e40098e51b24825ccd856e51d6886d522f7a9ae9181c7a72b25"
        )

    @pytest.mark.parametrize(
        "genus, jsonl, stdout",
        [
            (
                17,
                "ec3fd97f0d5f61b435af78d36120b3c08b96c9f64276d3153e2afdc233f6f632",
                "cfb28649c7eb9b746c2918d516faa6e9f02e60924a9495f363718f8b1ce24e8e",
            ),
            (
                18,
                "48c7b6537d4a86ecb72141f2eb08a8a6ee138afd58f5faa74a39eeb076121082",
                "016d2125cb6e2e6ae9172a1ce3a0bac415ae1083713a011edbd4c2150e131353",
            ),
        ],
        ids=["genus17", "genus18"],
    )
    def test_hunt_output_pinned_past_the_counterexamples(self, runner, tmp_path, monkeypatch, genus, jsonl, stdout):
        # recorded when the tree was built from generating sets and every
        # record from NumericalSemigroup and TraceReport objects
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        out = tmp_path / "hunt.jsonl"
        result = runner.invoke(main, ["hunt", "--max-genus", str(genus), "--out", str(out)])
        assert result.exit_code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == jsonl
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == stdout
        found = [json.loads(line)["generators"] for line in result.stdout.splitlines() if line.startswith("{")]
        assert [13, 14, 15, 16, 17, 18, 21, 23] in found and [13, 15, 16, 17, 18, 19, 21, 24, 25] in found

    def test_hunt_invalid_genus(self, runner):
        for value in ("0", "-3"):
            result = runner.invoke(main, ["hunt", "--max-genus", value])
            assert result.exit_code == 2
            assert "--max-genus" in result.output

    @pytest.mark.parametrize("family", ["random", "arithmetic", "gluing", "lifting"])
    def test_scan_max_multiplicity_below_three_exits_2(self, runner, tmp_path, family):
        out = tmp_path / "scan.jsonl"
        args = ["scan", family, "--limit", "2", "--max-multiplicity", "2", "--out", str(out)]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "--max-multiplicity" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("value", ["abc", "0", "-1"])
    def test_scan_bad_thread_count_exits_2(self, runner, tmp_path, monkeypatch, value):
        monkeypatch.setenv("NSG_THREADS", value)
        out = tmp_path / "scan.jsonl"
        result = runner.invoke(main, ["scan", "random", "--limit", "2", "--out", str(out)])
        assert result.exit_code == 2
        assert f"NSG_THREADS must be a positive integer, got {value!r}" in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, env, message",
        [
            (
                ["scan", "random", "--seed", str(2**64), "--limit", "1"],
                {},
                f"seed must lie in [-2**63, 2**64), got {2**64}",
            ),
            (
                ["hunt", "--max-genus", "3"],
                {"SOURCE_DATE_EPOCH": "99999999999999999999"},
                "SOURCE_DATE_EPOCH must be an integer in [-2**63, 2**64), got '99999999999999999999'",
            ),
        ],
        ids=["seed", "timestamp"],
    )
    def test_value_outside_64_bits_exits_2(self, tmp_path, args, env, message):
        # a fresh process, so a traceback would show on its stderr
        out = tmp_path / "out.jsonl"
        env = {**os.environ, "PYTHONPATH": str(Path(scan_mod.__file__).parents[1]), **env}
        argv = [sys.executable, "-m", "nsg.cli", *args, "--out", str(out)]
        result = subprocess.run(argv, capture_output=True, text=True, env=env)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.splitlines()[-1] == f"Error: {message}"
        assert "Traceback" not in result.stderr
        assert not out.exists()


    @pytest.mark.parametrize(
        "args",
        [["scan", "random", "--limit", "0", "--out", "{out}"], ["hunt", "--max-genus", "3"]],
        ids=["empty-scan", "hunt-without-out"],
    )
    def test_bad_source_date_epoch_exits_2_before_any_record(self, runner, tmp_path, args):
        out = tmp_path / "out.jsonl"
        result = runner.invoke(main, [arg.format(out=out) for arg in args], env={"SOURCE_DATE_EPOCH": "abc"})
        assert result.exit_code == 2
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert errors == ["Error: SOURCE_DATE_EPOCH must be an integer in [-2**63, 2**64), got 'abc'"]
        assert result.output.splitlines()[-1] == errors[0]
        assert not out.exists()

    def test_only_the_command_line_registers_an_exit_callback(self):
        # nsg.cli freezes the collector at exit; the library leaves it be
        src = str(Path(scan_mod.__file__).parents[1])
        code = (
            "import atexit; start = atexit._ncallbacks(); import nsg; lib = atexit._ncallbacks() - start; "
            "import nsg.cli; print(lib, atexit._ncallbacks() - start)"
        )
        env = {**os.environ, "PYTHONPATH": src}
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
        assert result.stdout == "0 1\n"

    @pytest.mark.parametrize(
        "args, code",
        [
            (["scan", "arithmetic", "--max-multiplicity", "5", "--out", "{out}"], 0),
            (["hunt", "--max-genus", "3", "--out", "{missing}"], 4),
        ],
        ids=["exit-0", "exit-4"],
    )
    def test_fresh_process_exit_keeps_streams_and_code(self, runner, tmp_path, args, code):
        # a standalone run, which ends through the interpreter's exit, prints
        # and writes what the in-process run does, with the same exit code
        env = {**os.environ, "PYTHONPATH": str(Path(scan_mod.__file__).parents[1]), "SOURCE_DATE_EPOCH": "0"}
        runs = []
        for where in ("fresh", "inline"):
            out, missing = tmp_path / f"{where}.jsonl", tmp_path / "nope" / "h.jsonl"
            argv = [arg.format(out=out, missing=missing) for arg in args]
            if where == "fresh":
                done = subprocess.run([sys.executable, "-m", "nsg.cli", *argv], capture_output=True, text=True, env=env)
                result = (done.returncode, done.stdout, done.stderr)
            else:
                done = runner.invoke(main, argv, env={"SOURCE_DATE_EPOCH": "0"})
                result = (done.exit_code, done.stdout, done.stderr)
            runs.append((*result, out.read_bytes() if out.exists() else None))
        assert runs[0] == runs[1]
        assert runs[0][0] == code
        assert "Exception ignored" not in runs[0][2]
        assert (runs[0][3] is None) == (code == 4)


@pytest.mark.parametrize(
    "args, message",
    [
        (["info", "0"], "generators must be positive integers, got [0]"),
        (["info", ","], "need at least one generator"),
        (["glue", "3,5,7", "2,3", "--lambda", "-10", "--mu", "7"], "gluing scalars must be positive"),
        (["lift", "3,5,7", "-k", "0"], "lift factor must be >= 1, got 0"),
        (["toric", "3,5"], "the projective criterion needs >= 3 generators, got (3, 5)"),
        (["scan", "random", "--limit", "2"], "NSG_THREADS must be a positive integer, got '0'"),
    ],
    ids=["info", "info-empty", "glue", "lift", "toric", "scan"],
)
def test_library_error_is_a_usage_error_of_its_subcommand(runner, tmp_path, args, message):
    out = tmp_path / "scan.jsonl"
    argv = args + ["--out", str(out)] if args[0] == "scan" else args
    result = runner.invoke(main, argv, env={"NSG_THREADS": "0"})
    assert result.exit_code == 2
    lines = result.output.splitlines()
    assert lines[-1] == f"Error: {message}"
    assert lines[0].startswith("Usage: ") and f" {args[0]} [OPTIONS]" in lines[0]
    assert not out.exists()


def test_failed_self_check_is_not_a_usage_error(runner, monkeypatch):
    def broken(s):
        raise AssertionError("self-check failed")

    monkeypatch.setattr(cli_mod, "acm_and_hypothesis", broken)
    result = runner.invoke(main, ["toric", "4,5,7"])
    assert result.exit_code == 1
    assert isinstance(result.exception, AssertionError)


@settings(max_examples=30, deadline=None)
@given(semigroups())
def test_info_json_round_trip(s):
    result = CliRunner().invoke(main, ["info", ",".join(map(str, s.generators)), "--json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload == {"generators": list(s.generators), **info_payload(s)}
    gaps = [x for x, member in enumerate(dp_membership(s.generators, window(s.generators))) if not member]
    assert payload["frobenius"] == max(gaps)
    assert payload["genus"] == len(gaps)
    assert payload["pf"] == brute_pf(s.generators, max(gaps))
