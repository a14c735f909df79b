"""Time the genus-tree hunt writing its JSONL, one fresh process per genus.

    python tools/hunt_scaling.py [--src SRC_DIR] [--json] [GENUS ...]

For each genus (default 14 18 20) a child interpreter imports ``nsg`` from
SRC_DIR (default ``src`` beside this script), runs ``scan.hunt(genus, out)``
with ``out`` a temporary file, and reports the wall and CPU time of that
call (imports excluded), the number of records the file holds, and its peak
resident set size (``ru_maxrss``, which includes the interpreter and numpy).
One line per genus:

    genus 18: 33281 records, wall 4.95 s, cpu 4.90 s, peak RSS 114.7 MiB

``--json`` prints one JSON list of the per-genus results instead.  Point
``--src`` at another checkout's ``src`` to compare two commits; a checkout
whose ``hunt`` returns its records instead (one with no ``out`` argument)
is measured by that checkout's own copy of this script.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

DEFAULT_GENERA = (14, 18, 20)

CHILD = """
import json, os, resource, sys, tempfile, time
sys.path.insert(0, sys.argv[1])
from nsg.scan import hunt
genus = int(sys.argv[2])
with tempfile.TemporaryDirectory() as tmp:
    out = os.path.join(tmp, "hunt.jsonl")
    wall, cpu = time.perf_counter(), time.process_time()
    hunt(genus, out)
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(out, "rb") as fh:
        records = sum(1 for _ in fh)
print(json.dumps({"genus": genus, "records": records, "wall_s": wall, "cpu_s": cpu, "peak_rss_mib": peak}))
"""


def measure(src: Path, genus: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(src), str(genus)],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "SOURCE_DATE_EPOCH": "0", "NSG_THREADS": "1"},
    )
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("genera", nargs="*", type=int, default=list(DEFAULT_GENERA))
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src")
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    results = []
    for genus in args.genera:
        row = measure(args.src.resolve(), genus)
        results.append(row)
        if not args.json:
            print(
                f"genus {genus}: {row['records']} records, wall {row['wall_s']:.2f} s, "
                f"cpu {row['cpu_s']:.2f} s, peak RSS {row['peak_rss_mib']:.1f} MiB",
                flush=True,
            )
    if args.json:
        print(json.dumps(results))


if __name__ == "__main__":
    main(sys.argv[1:])
