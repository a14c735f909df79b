"""Time the genus-tree hunt, one fresh process per genus.

    python tools/hunt_scaling.py [--src SRC_DIR] [--tree] [--no-out] [--json] [GENUS ...]

For each genus (default 14 18 20) a child interpreter imports ``nsg`` from
SRC_DIR (default ``src`` beside this script), runs ``scan.hunt(genus, out)``
with ``out`` a file in a temporary directory, and reports the wall and CPU
time of that call (imports excluded), the number of records the file holds,
and its peak resident set size (``ru_maxrss``, which includes the
interpreter and numpy).  One line per genus:

    genus 18: 33281 records, wall 4.95 s, cpu 4.90 s, peak RSS 114.7 MiB

With ``--no-out`` the child runs ``scan.hunt(genus)`` without an output
file instead, and the line gives the semigroups checked and the findings
(the violating records) in place of the records:

    genus 20: 93141 checked, 2 findings, wall 1.30 s, cpu 1.29 s, peak RSS 40.2 MiB

With ``--tree`` the same child then walks the genus tree alone to that
genus, through ``enumeration._walk`` (the (genus, multiplicity) blocks of
Apery matrices the hunt reads; an older checkout without it has its
``_levels``, or else its ``by_genus``, walked instead), and the line ends
with that wall time and its share of the hunt's:

    genus 20: 93141 records, wall 4.90 s, cpu 4.85 s, peak RSS 80.1 MiB, tree 0.09 s (1.8% of hunt)

``--json`` prints one JSON list of the per-genus results instead, each
with the sha256 of the written file, or with ``--no-out`` the sha256 of
the findings and the slack histogram (``findings_sha256``, over the
sorted-key JSON of ``[findings, histogram items]``).  This script
computes every digest itself, after the child has exited, so the child
loads no module for it and its peak is that of an nsg process.  Point
``--src`` at another checkout's ``src`` to compare two commits; a checkout
whose ``hunt`` returns its records instead (one with no ``out`` argument)
is measured by that checkout's own copy of this script.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

DEFAULT_GENERA = (14, 18, 20)

CHILD = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from nsg import enumeration
from nsg.scan import hunt
genus, out, tree = int(sys.argv[2]), sys.argv[3] or None, sys.argv[4] == "tree"
wall, cpu = time.perf_counter(), time.process_time()
checked, findings, histogram = hunt(genus, out)
wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
row = {"genus": genus, "checked": checked, "wall_s": wall, "cpu_s": cpu}
row["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
if out is None:
    row["findings"], row["histogram"] = findings, sorted(histogram.items())
if tree:
    start = time.perf_counter()
    walk = getattr(enumeration, "_walk", None) or getattr(enumeration, "_levels", None) or enumeration.by_genus
    for _ in walk(genus):
        pass
    row["tree_s"] = time.perf_counter() - start
print(json.dumps(row))
"""


def _file_digest(path: str) -> tuple[str, int]:
    """The sha256 and the line count of the file at ``path``."""
    digest, lines = hashlib.sha256(), 0
    with open(path, "rb") as fh:
        for line in fh:
            digest.update(line)
            lines += 1
    return digest.hexdigest(), lines


def measure(src: Path, genus: int, tree: bool = False, out: bool = True) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "hunt.jsonl") if out else ""
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, str(src), str(genus), path, "tree" if tree else "hunt"],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "SOURCE_DATE_EPOCH": "0", "NSG_THREADS": "1"},
        )
        row = json.loads(proc.stdout.splitlines()[-1])
        if out:
            del row["checked"]
            row["sha256"], row["records"] = _file_digest(path)
    if not out:
        found = [row.pop("findings"), row.pop("histogram")]
        row["findings"] = len(found[0])
        text = json.dumps(found, sort_keys=True, separators=(",", ":"))
        row["findings_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    return row


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("genera", nargs="*", type=int, default=list(DEFAULT_GENERA))
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src")
    parser.add_argument("--tree", action="store_true", help="also time the genus tree alone")
    parser.add_argument("--no-out", dest="out", action="store_false", help="run the hunt without an output file")
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    results = []
    for genus in args.genera:
        row = measure(args.src.resolve(), genus, args.tree, args.out)
        results.append(row)
        if not args.json:
            tree = ""
            if args.tree:
                tree = f", tree {row['tree_s']:.2f} s ({100 * row['tree_s'] / row['wall_s']:.1f}% of hunt)"
            counts = f"{row['records']} records" if args.out else f"{row['checked']} checked, {row['findings']} findings"
            print(
                f"genus {genus}: {counts}, wall {row['wall_s']:.2f} s, "
                f"cpu {row['cpu_s']:.2f} s, peak RSS {row['peak_rss_mib']:.1f} MiB{tree}",
                flush=True,
            )
    if args.json:
        print(json.dumps(results))


if __name__ == "__main__":
    main(sys.argv[1:])
