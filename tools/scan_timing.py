"""Time scan commands in alternating fresh processes, one checkout against another.

    python tools/scan_timing.py [--src PARENT_SRC] [--family gluing|lifting]
        [--commands N] [--limit N] [--max-multiplicity M] [--threads T]
        [--rounds R] [--json]

The commands are ``nsg scan FAMILY --seed j --limit N --max-multiplicity M
--verify --out FILE`` for j = 0 .. N-1; the defaults (gluing, seeds 0-6,
limit 100, max multiplicity 10) are the seven commands of the benchmark's
``glue`` workload, and ``--family lifting`` runs lifting scans instead.
Each command runs as ``python -m nsg.cli`` in a fresh child with ``nsg``
imported from a ``src`` directory, NSG_THREADS=T (1 by default) and
SOURCE_DATE_EPOCH=0, once per round on each side: the ``src`` beside this
script (the change) and, with ``--src``, PARENT_SRC (the parent),
alternating which side runs first.  For each side it reports, as the
benchmark does, the mean over the commands of the median over the rounds
of the wall time until the child has exited, its user + system CPU time
and its peak resident set size (``os.wait4``, which counts the child's
pool workers in the CPU time), and it counts the rounds in which the change's total wall
time was lower.  This script computes the sha256 of every output itself,
after the child has exited, so the child loads no ``hashlib``, and it says
whether both sides wrote the same bytes.  On a shared 2-core Xeon virtual
machine:

    change: wall 0.218 s, cpu 0.215 s, peak RSS 33.3 MiB
    parent: wall 0.232 s, cpu 0.229 s, peak RSS 33.2 MiB
    change/parent wall 0.940, lower in 5/5 rounds; same output

``--json`` prints one JSON object instead, with every sample and digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parents[1] / "src"


def command(family: str, seed: int, limit: int, max_multiplicity: int, out: str) -> list[str]:
    """The child's argv for one verified scan written to ``out``."""
    return [
        sys.executable, "-m", "nsg.cli", "scan", family, "--seed", str(seed), "--limit", str(limit),
        "--max-multiplicity", str(max_multiplicity), "--verify", "--out", out,
    ]


def run(src: Path, argv: list[str], out: str, threads: int) -> dict:
    """Run ``argv`` to completion with ``nsg`` from ``src`` and NSG_THREADS
    ``threads``; its wall and CPU time, peak RSS and the sha256 of ``out``."""
    env = {**os.environ, "PYTHONPATH": str(src), "NSG_THREADS": str(threads), "SOURCE_DATE_EPOCH": "0"}
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"scan_timing: {' '.join(argv[3:])} failed with {src}")
    with open(out, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    os.unlink(out)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime, "peak_rss_mib": usage.ru_maxrss / 1024,
            "sha256": digest}


def measure(sides: dict[str, Path], family: str, seeds: list[int], limit: int, max_multiplicity: int,
            threads: int, rounds: int) -> dict:
    """Every command once per round on each side, the side that goes first
    alternating by round; the samples per side and command."""
    samples = {side: {seed: [] for seed in seeds} for side in sides}
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.jsonl")
        for r in range(rounds):
            order = list(sides) if r % 2 == 0 else list(sides)[::-1]
            for seed in seeds:
                argv = command(family, seed, limit, max_multiplicity, out)
                for side in order:
                    samples[side][seed].append(run(sides[side], argv, out, threads))
    return samples


def summary(samples: dict) -> dict:
    """Per side, the mean over commands of the median over rounds of each
    metric, and the sha256 of each command's first output."""
    result = {}
    for side, per_seed in samples.items():
        row = {
            key: statistics.fmean(statistics.median(s[key] for s in runs) for runs in per_seed.values())
            for key in ("wall_s", "cpu_s", "peak_rss_mib")
        }
        row["sha256"] = {seed: runs[0]["sha256"] for seed, runs in per_seed.items()}
        result[side] = row
    return result


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, help="the parent checkout's src, timed against the one beside this script")
    parser.add_argument("--family", choices=("gluing", "lifting"), default="gluing")
    parser.add_argument("--commands", type=int, default=7)
    parser.add_argument("--limit", type=int, default=100)
    parser.add_argument("--max-multiplicity", type=int, default=10)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    sides = {"change": HERE} if args.src is None else {"change": HERE, "parent": args.src.resolve()}
    seeds = list(range(args.commands))
    samples = measure(sides, args.family, seeds, args.limit, args.max_multiplicity, args.threads, args.rounds)
    result = {"family": args.family, "seeds": seeds, "limit": args.limit, "max_multiplicity": args.max_multiplicity,
              "threads": args.threads, "rounds": args.rounds, **summary(samples)}
    if args.src is not None:
        totals = {side: [sum(samples[side][seed][r]["wall_s"] for seed in seeds) for r in range(args.rounds)]
                  for side in sides}
        result["change_over_parent_wall"] = result["change"]["wall_s"] / result["parent"]["wall_s"]
        result["change_lower_in"] = sum(c < p for c, p in zip(totals["change"], totals["parent"]))
        result["same_output"] = result["change"]["sha256"] == result["parent"]["sha256"]
    if args.json:
        result["samples"] = samples
        print(json.dumps(result))
        return
    for side in sides:
        row = result[side]
        print(f"{side}: wall {row['wall_s']:.3f} s, cpu {row['cpu_s']:.3f} s, peak RSS {row['peak_rss_mib']:.1f} MiB")
    if args.src is not None:
        same = "same output" if result["same_output"] else "OUTPUTS DIFFER"
        print(f"change/parent wall {result['change_over_parent_wall']:.3f}, "
              f"lower in {result['change_lower_in']}/{args.rounds} rounds; {same}")


if __name__ == "__main__":
    main(sys.argv[1:])
