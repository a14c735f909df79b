"""Time ``reduced_gb`` over the arithmetic grid, one fresh process per n1 range.

    python tools/grid_timing.py [--src SRC_DIR] [--json] [LO-HI ...]

For each range (default 13-18) a child interpreter imports ``nsg`` from
SRC_DIR (default ``src`` beside this script), builds every arithmetic
semigroup (n1, d, e) with LO <= n1 <= HI, 1 <= d <= 5, gcd(n1, d) = 1 and
3 <= e <= n1, and then times ``toric.reduced_gb`` over all of them: wall and
CPU time of that loop alone, the peak resident set size of the child
(``ru_maxrss``, which includes the interpreter and numpy), and the sha256 of
the bases, hashed as the pinned grid digests of ``tests/test_toric.py`` are
(``3-8`` gives the n1_3_8 digest).  One line per range:

    n1 13-18: 279 bases, wall 8.12 s, cpu 8.05 s, peak RSS 38.2 MiB, sha256 0123abcd...

``--json`` prints one JSON list of the per-range results instead, with the
full digest.  Point ``--src`` at another checkout's ``src`` to compare two
commits: reduced bases are unique, so equal digests mean element-for-element
identical bases.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

DEFAULT_RANGES = ("13-18",)

CHILD = """
import hashlib, json, math, resource, sys, time
sys.path.insert(0, sys.argv[1])
from nsg.constructions import arithmetic_semigroup
from nsg.toric import reduced_gb
lo, hi = int(sys.argv[2]), int(sys.argv[3])
grid = [
    arithmetic_semigroup(n1, d, e)
    for n1 in range(lo, hi + 1)
    for d in range(1, 6)
    if math.gcd(n1, d) == 1
    for e in range(3, n1 + 1)
]
wall, cpu = time.perf_counter(), time.process_time()
bases = [reduced_gb(s) for s in grid]
wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
text = json.dumps([gb.to_json() for gb in bases], sort_keys=True, separators=(",", ":"))
print(json.dumps({
    "n1": [lo, hi],
    "bases": len(bases),
    "wall_s": wall,
    "cpu_s": cpu,
    "peak_rss_mib": peak,
    "sha256": hashlib.sha256(text.encode()).hexdigest(),
}))
"""


def n1_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("-")
    lo, hi = int(lo), int(hi or lo)
    if not 3 <= lo <= hi:
        raise argparse.ArgumentTypeError(f"need 3 <= LO <= HI, got {text}")
    return lo, hi


def measure(src: Path, lo: int, hi: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(src), str(lo), str(hi)],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "SOURCE_DATE_EPOCH": "0", "NSG_THREADS": "1"},
    )
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ranges", nargs="*", type=n1_range, default=[n1_range(r) for r in DEFAULT_RANGES])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src")
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    results = []
    for lo, hi in args.ranges:
        row = measure(args.src.resolve(), lo, hi)
        results.append(row)
        if not args.json:
            print(
                f"n1 {lo}-{hi}: {row['bases']} bases, wall {row['wall_s']:.2f} s, cpu {row['cpu_s']:.2f} s, "
                f"peak RSS {row['peak_rss_mib']:.1f} MiB, sha256 {row['sha256'][:16]}...",
                flush=True,
            )
    if args.json:
        print(json.dumps(results))


if __name__ == "__main__":
    main(sys.argv[1:])
