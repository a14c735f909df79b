"""Benchmark of the ``nsg`` command-line tool.

Run it from the root of an nsg checkout (it needs ``src/nsg`` and the
numpy and click the package imports):

    python3 bench/run.py --workload grid --seed 1 --seconds 36 --trace 0

It makes the workload's commands from ``--seed``, runs them for about
``--seconds`` seconds, checks every output file, and prints one JSON object
as the last line of standard output:

    {"correct": true, "attempted": 365, "failed": 0, "metrics": {...}}

``attempted`` counts the JSONL records the commands were asked for and
``failed`` those of commands that crashed, exited non-zero or wrote a wrong
output; a wrong output also makes ``correct`` false.  An output is wrong
when its record count differs, when its sha256 differs from the one
recorded for that command, when the genus counts of ``hunt`` differ from
A007323, or when a ``glue`` record failed its ``--verify`` check.  The line
before the result records the machine and, for ``--trace 0``, the unscaled
times (see below).

Workloads (each command runs with NSG_THREADS=1 and SOURCE_DATE_EPOCH=0):

grid  ``nsg scan arithmetic --max-multiplicity 8 --limit 73 --seed 0``, the
      whole n1 <= 8, d <= 5 arithmetic-sequence grid with the toric verdict.
      Buchberger on the t-elimination ideal takes nearly all of its time.
hunt  ``nsg hunt --max-genus 14``: the genus tree, 4,106 small semigroups
      with two traces each, every record held in memory and then written.
      No toric work.
glue  ``nsg scan gluing --seed S --limit 100 --max-multiplicity 10 --verify``
      for seven seeds S derived from ``--seed``: larger semigroups built by
      gluing, FFT-path Minkowski sums, every prediction verified.  The cost
      of one gluing scan depends strongly on its seed, so a run averages seven.

With ``--trace 0`` each command runs as a fresh process and the metrics are

  wall_s       fresh-process wall time until the command has exited
  cpu_s        the child's user + system time (``os.wait4``)
  peak_rss_mb  the child's peak resident set size, in MiB
  setup_s      median wall time of fresh ``python -m nsg.cli --help``
               processes: interpreter start plus the import of numpy, click
               and nsg.  One runs just before each command, so the samples
               spread over the whole run like those of wall_s

For wall_s, cpu_s and peak_rss_mb the median over a command's repeats is
taken, then the mean over the workload's commands.

The three times are scaled to one machine speed.  On a shared 2-core Xeon
virtual machine the speed was measured to drift by 30-70% within tens of
seconds, and a plain CPU loop drifts with it, so raw times of runs a minute
apart differ more than any bound a regression check could use.  Around each command
(and its help run) this process times a fixed pure-Python loop, before and
after, and multiplies the command's times by REFERENCE_S over the mean of
the two; a time is thus what the command takes when the loop takes
REFERENCE_S.  The loop runs in this process and imports nothing from
``nsg``, so a change to the package moves the scaled times as it moves the
raw ones.  The line before the result also holds the unscaled figures.

With ``--trace 1`` the commands run in this process through
``nsg.cli.main(..., standalone_mode=False)``, alternately plain and with
the spans of ``spans.py`` installed, and the metrics are, as medians over
the traced passes (a pass runs each of the workload's commands once and sums
over them), ``<layer>.<function>.{calls,self_s,max_s}``, the layer
totals ``<layer>.self_s`` (``cli.self_s`` is the wall time outside every
span), ``ideals.trace_and_residue.unique_frac``,
``semigroup.new_semigroup.reduced_frac``, ``enumeration.children.out``,
``scan.write_jsonl.bytes`` and ``trace.overhead_frac`` (traced over plain
in-process wall time, minus 1).  A function a workload never calls reads 0.

Left out on purpose: runs with several NSG_THREADS workers (a 2-core shared
machine gives no steady scaling figures); ``defining_ideal``,
``homogenized_gb`` and lifting scans (on no CLI path, or covered by the
layers ``glue`` runs); counters inside the program such as S-pairs and
reduction steps.  The failure share is the result's ``failed`` over
``attempted``, not a metric: it is 0 on a good run, and a bound that is a
share of the median means nothing at 0.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from spans import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

HARD_LIMIT_S = 170.0  # every run ends within 180 s, whatever its children do
# Times are scaled to the machine speed at which the reference loop takes
# REFERENCE_S; see the module docstring.
REFERENCE_LOOP = 1_500_000
REFERENCE_S = 0.1
GLUE_SEEDS = 7  # gluing scans per glue run

# Semigroups of genus 1, 2, ...: Bras-Amoros, Semigroup Forum 76 (2008); OEIS A007323.
GENUS_COUNTS = (1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001, 1693, 2857)

# sha256 of each command's JSONL output at the commit that defined the benchmark.
EXPECTED_SHA256 = {
    "scan arithmetic --max-multiplicity 8 --limit 73 --seed 0": "8654a2a7c110a6a9fcb4a8ecc13036484d0ad80aa6311765c39c5f6cf8d85170",
    "hunt --max-genus 14": "05f039b0882db40703e41aff99e641e3bc33672d1e5e5efddce427ce34b5d6a7",
    "scan gluing --seed 0 --limit 100 --max-multiplicity 10 --verify": "1386546c0ef933f2eac9c2ce4fc0d8ec56c111e7733593ff91a08bb83263b4c2",
    "scan gluing --seed 1 --limit 100 --max-multiplicity 10 --verify": "e04a8842ffc5786025328bc55f613a31c786960ad31b5c81c6e99bed4ba77fff",
    "scan gluing --seed 2 --limit 100 --max-multiplicity 10 --verify": "18f5f39a9fcf2c90f5cc1d9efdeebf5b6e3740976f9ba3d7755261ed2252ca2e",
    "scan gluing --seed 3 --limit 100 --max-multiplicity 10 --verify": "3fa5e3932c745f46797960a1a315a16632049ab4b107beda789268b0e8f18b6e",
    "scan gluing --seed 4 --limit 100 --max-multiplicity 10 --verify": "2956ae431faf993ff3edf5552a87b45bf6c3dcab313647710f5844e6958f53c4",
    "scan gluing --seed 5 --limit 100 --max-multiplicity 10 --verify": "64f607f1288c26296fac7b3e10ea374aff2acbac447bb4144d6cbb5d91fd5e0d",
    "scan gluing --seed 6 --limit 100 --max-multiplicity 10 --verify": "2cc380d1b3739ac5e74019dab0a4b6d4840651684a3a5e9447afb3c695918fe1",
    # --smoke sizes
    "scan arithmetic --max-multiplicity 5 --limit 22 --seed 0": "a90a18f82adc79ff979e88e10a2ffa431f3db20d377b63cf266b7d1a14168369",
    "hunt --max-genus 8": "56378480e5f59a99c9134e76951b2b696f23e4cf4d330ce0181ccd2afabe77d7",
    "scan gluing --seed 0 --limit 3 --max-multiplicity 6 --verify": "29fdb5a70f35432402a6cc976986ffb62dbb92d21b10ace0a9d72be715331e4b",
    "scan gluing --seed 1 --limit 3 --max-multiplicity 6 --verify": "2d69623d9417322b741d10bbf64c67756fce941deb818514c52dc34eb909f8d6",
}


class WrongOutput(Exception):
    """A command's output failed the benchmark's correctness check."""


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    records: int  # JSONL records the command must write
    kind: str  # workload name, selects the check

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def workload_commands(name: str, seed: int, smoke: bool) -> list[Command]:
    """The CLI commands of one run; ``smoke`` shrinks them to toy sizes."""
    if name == "grid":
        mm, limit = (5, 22) if smoke else (8, 73)
        argv = ("scan", "arithmetic", "--max-multiplicity", str(mm), "--limit", str(limit), "--seed", "0")
        return [Command(argv, limit, name)]
    if name == "hunt":
        genus = 8 if smoke else 14
        return [Command(("hunt", "--max-genus", str(genus)), sum(GENUS_COUNTS[:genus]), name)]
    if name == "glue":
        count, limit, mm = (2, 3, 6) if smoke else (GLUE_SEEDS, 100, 10)
        return [
            Command(
                ("scan", "gluing", "--seed", str(count * seed + j), "--limit", str(limit),
                 "--max-multiplicity", str(mm), "--verify"),
                limit,
                name,
            )
            for j in range(count)
        ]
    raise ValueError(name)


def check_output(cmd: Command, path: Path) -> None:
    """Raise WrongOutput unless ``path`` is a right answer to ``cmd``."""
    try:
        data = path.read_bytes()
        records = [json.loads(line) for line in data.splitlines()]
    except (OSError, ValueError) as exc:
        raise WrongOutput(f"{cmd.key}: unreadable output: {exc}")
    if len(records) != cmd.records:
        raise WrongOutput(f"{cmd.key}: {len(records)} records, expected {cmd.records}")
    expected = EXPECTED_SHA256.get(cmd.key)
    if expected is not None and hashlib.sha256(data).hexdigest() != expected:
        raise WrongOutput(f"{cmd.key}: sha256 differs from the recorded output")
    try:
        if cmd.kind == "hunt":
            per_genus: dict[int, int] = {}
            for rec in records:
                genus = rec["provenance"]["genus"]
                per_genus[genus] = per_genus.get(genus, 0) + 1
            counts = tuple(per_genus.get(g, 0) for g in range(1, max(per_genus) + 1))
            if counts != GENUS_COUNTS[: len(counts)]:
                raise WrongOutput(f"{cmd.key}: genus counts {counts} differ from A007323")
        if cmd.kind == "glue":
            unverified = sum(1 for rec in records if rec["verification"]["verified"] is not True)
            if unverified:
                raise WrongOutput(f"{cmd.key}: {unverified} gluings failed verification")
    except (KeyError, TypeError) as exc:
        raise WrongOutput(f"{cmd.key}: record without {exc}")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    correct: bool = True

    def add(self, cmd: Command, ok: bool, out: Path) -> None:
        """Count one execution of ``cmd`` that wrote ``out``."""
        self.attempted += cmd.records
        if not ok:
            self.failed += cmd.records
            return
        try:
            check_output(cmd, out)
        except WrongOutput as exc:
            print(f"bench: {exc}", file=sys.stderr)
            self.failed += cmd.records
            self.correct = False


def child_env(work: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), NSG_THREADS="1", SOURCE_DATE_EPOCH="0", TMPDIR=str(work))
    return env


def spawn(argv: list[str], work: Path, deadline: float) -> tuple[int, float, os.struct_rusage]:
    """Run ``python -m nsg.cli *argv`` to completion in a fresh process;
    return its exit code, wall time and resource usage."""
    cmd = [sys.executable, "-m", "nsg.cli", *argv]
    with open(work / "stdout", "wb") as out, open(work / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(work), stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        tail = (work / "stderr").read_text(errors="replace")[-2000:]
        print(f"bench: nsg {' '.join(argv)} exited {code}\n{tail}", file=sys.stderr)
    return code, wall, usage


def reference_s() -> float:
    """Wall time of a fixed pure-Python loop in this process: the speed the
    machine has at the moment."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i
    return time.perf_counter() - start


def help_wall(work: Path, deadline: float) -> float:
    """Wall time of one fresh ``python -m nsg.cli --help`` process."""
    code, wall, _ = spawn(["--help"], work, deadline)
    if code != 0:
        raise SystemExit("bench: python -m nsg.cli --help failed")
    return wall


def run_passes(seconds: float, deadline: float, one_pass) -> None:
    """Call ``one_pass`` at least once, then again while another pass of
    the mean length so far still ends within ``seconds``."""
    start = time.monotonic()
    passes = 0
    while True:
        one_pass()
        passes += 1
        now = time.monotonic()
        if now + (now - start) / passes > min(start + seconds, deadline):
            return


def untraced(commands: list[Command], seconds: float, work: Path, deadline: float, tally: Tally) -> tuple[dict, dict]:
    # Per command: wall, cpu and rss of each repeat, and the scale of the
    # machine speed measured around it; one help run per command execution.
    samples: dict[str, list[tuple[float, float, float, float]]] = {c.key: [] for c in commands}
    helps: list[tuple[float, float]] = []

    def one_pass():
        for cmd in commands:
            before = reference_s()
            setup = help_wall(work, deadline)
            out = work / "out.jsonl"
            out.unlink(missing_ok=True)
            code, wall, usage = spawn([*cmd.argv, "--out", str(out)], work, deadline)
            scale = REFERENCE_S / ((before + reference_s()) / 2)
            tally.add(cmd, code == 0, out)
            rss_mb = usage.ru_maxrss / 1024  # KiB on Linux
            samples[cmd.key].append((wall, usage.ru_utime + usage.ru_stime, rss_mb, scale))
            helps.append((setup, scale))

    help_wall(work, deadline)  # untimed warm-up: leaves the bytecode compiled
    run_passes(seconds, deadline, one_pass)

    def typical(field: int, scaled: bool) -> float:
        """Mean over commands of the median over their repeats."""
        return statistics.fmean(
            statistics.median(s[field] * (s[3] if scaled else 1.0) for s in repeats) for repeats in samples.values()
        )

    metrics = {
        "wall_s": (typical(0, True), "s"),
        "cpu_s": (typical(1, True), "s"),
        "peak_rss_mb": (typical(2, False), "MiB"),
        "setup_s": (statistics.median(h * scale for h, scale in helps), "s"),
    }
    unscaled = {
        "wall_s": typical(0, False),
        "cpu_s": typical(1, False),
        "setup_s": statistics.median(h for h, _ in helps),
        "speed_scale": statistics.median(scale for _, scale in helps),
    }
    return metrics, {"unscaled": unscaled}


def in_process(cmd: Command, out: Path) -> tuple[bool, float]:
    """Run ``cmd`` through ``nsg.cli.main`` in this process."""
    import nsg.cli

    out.unlink(missing_ok=True)
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            nsg.cli.main([*cmd.argv, "--out", str(out)], standalone_mode=False)
        ok = True
    except SystemExit as exc:
        ok = exc.code in (0, None)
    except Exception:
        traceback.print_exc()
        ok = False
    wall = time.perf_counter() - start
    if not ok:
        print(f"bench: nsg {cmd.key} failed in process", file=sys.stderr)
    return ok, wall


def pass_metrics(tracer: Tracer, wall: float, plain_wall: float, written: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    metrics: dict[str, float] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, stat in tracer.stats.items():
        metrics[f"{name}.calls"] = stat.calls
        metrics[f"{name}.self_s"] = stat.self_s
        metrics[f"{name}.max_s"] = stat.max_s
        layer_self[name.split(".")[0]] += stat.self_s
    cli_self = wall - tracer.root_s
    if cli_self < 0:
        raise RuntimeError(f"spans cover {tracer.root_s} s, more than the traced wall time {wall} s")
    for layer, value in layer_self.items():
        metrics[f"{layer}.self_s"] = value
    metrics["cli.self_s"] = cli_self
    traces = tracer.stats["ideals.trace_and_residue"].calls
    built = tracer.stats["semigroup.new_semigroup"].calls
    metrics["ideals.trace_and_residue.unique_frac"] = len(tracer.traced_generators) / traces if traces else 0.0
    metrics["semigroup.new_semigroup.reduced_frac"] = tracer.reduced / built if built else 0.0
    metrics["enumeration.children.out"] = tracer.children_out
    metrics["scan.write_jsonl.bytes"] = written if tracer.stats["scan.write_jsonl"].calls else 0
    metrics["trace.overhead_frac"] = wall / plain_wall - 1
    return metrics


def traced(commands: list[Command], seconds: float, work: Path, deadline: float, tally: Tally) -> tuple[dict, dict]:
    sys.path.insert(0, str(SRC))
    os.environ.update(NSG_THREADS="1", SOURCE_DATE_EPOCH="0")
    passes: list[dict[str, float]] = []
    out = work / "out.jsonl"

    def one_pass():
        tracer = Tracer()
        plain = wall = 0.0
        written = 0
        for cmd in commands:
            ok, seconds_plain = in_process(cmd, out)
            tally.add(cmd, ok, out)
            with tracer.installed():
                ok, seconds_traced = in_process(cmd, out)
            tally.add(cmd, ok, out)
            plain += seconds_plain
            wall += seconds_traced
            written += out.stat().st_size if out.exists() else 0
        passes.append(pass_metrics(tracer, wall, plain, written))

    run_passes(seconds, deadline, one_pass)
    units = {"calls": "count", "self_s": "s", "max_s": "s", "unique_frac": "ratio", "reduced_frac": "ratio",
             "out": "count", "bytes": "bytes", "overhead_frac": "ratio"}
    return {
        name: (statistics.median(p[name] for p in passes), units[name.rsplit(".", 1)[1]])
        for name in passes[0]
    }, {}


def machine() -> dict:
    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "click": version("click"),
        "commit": commit,
        "loadavg": os.getloadavg(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("grid", "hunt", "glue"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, for the benchmark's own test")
    args = parser.parse_args(argv)
    if not (SRC / "nsg" / "cli.py").is_file():
        print(f"bench: no nsg sources under {SRC}; run from an nsg checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + HARD_LIMIT_S
    commands = workload_commands(args.workload, args.seed, args.smoke)
    host = machine()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    tally = Tally()
    try:
        measure = traced if args.trace else untraced
        metrics, details = measure(commands, args.seconds, work, deadline, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:14.6f} {unit}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "machine": host, **details}))
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
