"""Time the genus-tree hunt writing its JSONL, one fresh process per genus.

    python tools/hunt_scaling.py [--src SRC_DIR] [--tree] [--json] [GENUS ...]

For each genus (default 14 18 20) a child interpreter imports ``nsg`` from
SRC_DIR (default ``src`` beside this script), runs ``scan.hunt(genus, out)``
with ``out`` a temporary file, and reports the wall and CPU time of that
call (imports excluded), the number of records the file holds, and its peak
resident set size (``ru_maxrss``, which includes the interpreter and numpy).
One line per genus:

    genus 18: 33281 records, wall 4.95 s, cpu 4.90 s, peak RSS 114.7 MiB

With ``--tree`` the same child then walks the genus tree alone to that
genus, through ``enumeration._walk`` (the (genus, multiplicity) blocks of
Apery matrices the hunt reads; an older checkout without it has its
``_levels``, or else its ``by_genus``, walked instead), and the line ends
with that wall time and its share of the hunt's:

    genus 20: 93141 records, wall 4.90 s, cpu 4.85 s, peak RSS 80.1 MiB, tree 0.09 s (1.8% of hunt)

``--json`` prints one JSON list of the per-genus results instead, each
with the sha256 of the written file.  Point
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
import hashlib, json, os, resource, sys, tempfile, time
sys.path.insert(0, sys.argv[1])
from nsg import enumeration
from nsg.scan import hunt
genus, tree = int(sys.argv[2]), sys.argv[3] == "tree"
with tempfile.TemporaryDirectory() as tmp:
    out = os.path.join(tmp, "hunt.jsonl")
    wall, cpu = time.perf_counter(), time.process_time()
    hunt(genus, out)
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    digest, records = hashlib.sha256(), 0
    with open(out, "rb") as fh:
        for line in fh:
            digest.update(line)
            records += 1
row = {"genus": genus, "records": records, "wall_s": wall, "cpu_s": cpu, "peak_rss_mib": peak}
row["sha256"] = digest.hexdigest()
if tree:
    start = time.perf_counter()
    walk = getattr(enumeration, "_walk", None) or getattr(enumeration, "_levels", None) or enumeration.by_genus
    for _ in walk(genus):
        pass
    row["tree_s"] = time.perf_counter() - start
print(json.dumps(row))
"""


def measure(src: Path, genus: int, tree: bool = False) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(src), str(genus), "tree" if tree else "hunt"],
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
    parser.add_argument("--tree", action="store_true", help="also time the genus tree alone")
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    results = []
    for genus in args.genera:
        row = measure(args.src.resolve(), genus, args.tree)
        results.append(row)
        if not args.json:
            tree = ""
            if args.tree:
                tree = f", tree {row['tree_s']:.2f} s ({100 * row['tree_s'] / row['wall_s']:.1f}% of hunt)"
            print(
                f"genus {genus}: {row['records']} records, wall {row['wall_s']:.2f} s, "
                f"cpu {row['cpu_s']:.2f} s, peak RSS {row['peak_rss_mib']:.1f} MiB{tree}",
                flush=True,
            )
    if args.json:
        print(json.dumps(results))


if __name__ == "__main__":
    main(sys.argv[1:])
