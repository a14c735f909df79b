"""Time the JSONL writer on synthetic keyed lines, in a fresh process.

    python tools/write_timing.py [--src SRC_DIR] [--lines N] [--json]

A child interpreter imports ``nsg`` from SRC_DIR (default ``src`` beside
this script) and feeds N (default 400000) synthetic ``_keyed`` lines of
about 560 bytes, the size of a genus-22 hunt record, to
``scan.write_jsonl`` with a new file in a temporary directory as its
output.  Line i has the id ``sha256(str(i))[:16]``, made with the built-in
SHA-256 that ``nsg.scan`` loads itself, so the ids arrive in no order.  The
lines are made lazily, so they are never all held, and the child first
times one pass that only makes them; the write's wall and CPU time are
what the writing pass takes beyond that.  It reports those and the peak
resident set size (``ru_maxrss``, which includes the interpreter); this
script then reads the size and sha256 of the written file itself, so the
child loads no module for it.  Here on a 2-core Xeon virtual machine:

    400000 lines: write 1.49 s, cpu 1.49 s (making them 0.69 s), peak RSS 47.6 MiB, 218288890 bytes, sha256 913e1c47...

``--json`` prints the result as one JSON object instead.  Point ``--src``
at another checkout's ``src`` to compare two commits: equal sha256 means
equal bytes.
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

DEFAULT_LINES = 400_000

CHILD = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
try:  # the built-in SHA-256 that nsg.scan loads itself; hashlib would add OpenSSL
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256
from nsg.scan import write_jsonl
count, out = int(sys.argv[2]), sys.argv[3]
pad = "x" * 500

def lines():
    for i in range(count):
        ident = sha256(str(i).encode()).hexdigest()[:16]
        yield f'{ident} {{"id":"{ident}","n":{i},"pad":"{pad}"}}\\n'

def timed(run):
    wall, cpu = time.perf_counter(), time.process_time()
    run()
    return time.perf_counter() - wall, time.process_time() - cpu

making = timed(lambda: sum(1 for _ in lines()))
wall, cpu = timed(lambda: write_jsonl(out, lines()))
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
row = {
    "lines": count,
    "write_s": wall - making[0],
    "cpu_s": cpu - making[1],
    "making_s": making[0],
    "peak_rss_mib": peak,
}
print(json.dumps(row))
"""


def measure(src: Path, lines: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.jsonl")
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, str(src), str(lines), out], capture_output=True, text=True, check=True
        )
        row = json.loads(proc.stdout.splitlines()[-1])
        digest = hashlib.sha256()
        with open(out, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
        row["bytes"], row["sha256"] = os.path.getsize(out), digest.hexdigest()
    return row


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src")
    parser.add_argument("--lines", type=int, default=DEFAULT_LINES)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    row = measure(args.src.resolve(), args.lines)
    if args.json:
        print(json.dumps(row))
    else:
        print(
            f"{row['lines']} lines: write {row['write_s']:.2f} s, cpu {row['cpu_s']:.2f} s "
            f"(making them {row['making_s']:.2f} s), peak RSS {row['peak_rss_mib']:.1f} MiB, "
            f"{row['bytes']} bytes, sha256 {row['sha256']}"
        )


if __name__ == "__main__":
    main(sys.argv[1:])
