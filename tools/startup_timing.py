"""Time the start and exit of fresh processes: the interpreter, numpy, nsg.

    python tools/startup_timing.py [--src SRC_DIR] [--rounds N] [--json]

Each round runs one fresh child interpreter for each of ``python -c pass``,
``import numpy``, ``import numpy, click, orjson``, ``import nsg.cli``, ``nsg
--help``, ``nsg --help, no teardown`` and ``nsg hunt --max-genus 14``, with
``nsg`` imported from SRC_DIR (default ``src`` beside this script),
NSG_THREADS=1 and SOURCE_DATE_EPOCH=0; the rest of the environment is this
process's, so an OPENBLAS_NUM_THREADS set by the caller reaches the
children.  For each command it prints the median over N rounds (default 9)
of the wall time until the child has exited, its user + system CPU time and
peak resident set size (``os.wait4``), the number of threads the child runs
as it exits (``/proc/self/task``, read from an ``atexit`` hook), and whether
the child writes bytecode caches (``sys.flags.dont_write_bytecode``, set by
PYTHONDONTWRITEBYTECODE or ``-B``; when it is set, every child compiles
nsg's source again):

    nsg --help: wall 0.146 s, cpu 0.146 s, peak RSS 30.3 MiB, threads 1, dont_write_bytecode 1

``import numpy, click, orjson`` pins OpenBLAS to one thread, as ``import
nsg`` does, so its gap to ``import nsg.cli`` is nsg's own import cost:
compiling its source when no bytecode cache is written, and running its
modules.  One more child, run once, lists the modules that ``import
nsg.cli`` adds to those, so a new heavy import shows up by name:

    import nsg.cli adds: _heapq, _locale, _sha256, gc, heapq, locale, nsg, nsg.cli, ...

``nsg --help, no teardown`` runs the same command, then flushes stdout and
stderr and leaves through ``os._exit``: no atexit handler, no module
teardown and no shutdown collection.  Its gap to ``nsg --help`` is the exit
cost the command still pays.

``--json`` prints one JSON list of the per-command medians instead; the
``import nsg.cli`` row lists the added modules under ``added_modules``.  Point
``--src`` at another checkout's ``src`` to compare two commits.  The thread
count needs Linux's ``/proc``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# the hook's line is the child's last on stderr: the threads still running
# once the command is done, and whether it writes no bytecode caches
REPORT = "print(len(os.listdir('/proc/self/task')), int(sys.flags.dont_write_bytecode), file=sys.stderr)"
HOOK = f"import atexit, os, sys; atexit.register(lambda: {REPORT})\n"
NSG = "import runpy, sys; sys.argv[1:] = {!r}; runpy.run_module('nsg.cli', run_name='__main__', alter_sys=True)"
# prints the hook's line itself, as os._exit skips the hook
NO_TEARDOWN = """status = 0
try:
    {}
except SystemExit as exc:
    status = exc.code or 0
{}
sys.stdout.flush()
sys.stderr.flush()
os._exit(status)
"""
# what nsg/__init__.py does before it imports numpy
PIN_OPENBLAS = """if not {'OPENBLAS_NUM_THREADS', 'GOTO_NUM_THREADS', 'OMP_NUM_THREADS'} & os.environ.keys():
    os.environ['OPENBLAS_NUM_THREADS'] = '1'"""
COMMANDS = {
    "python -c pass": "pass",
    "import numpy": "import numpy",
    "import numpy, click, orjson": f"{PIN_OPENBLAS}\nimport numpy, click, orjson",
    "import nsg.cli": "import nsg.cli",
    "nsg --help": NSG.format(["--help"]),
    "nsg --help, no teardown": NO_TEARDOWN.format(NSG.format(["--help"]), REPORT),
    "nsg hunt --max-genus 14": NSG.format(["hunt", "--max-genus", "14"]),
}
# prints the modules that import nsg.cli adds to those of numpy, click and orjson
ADDED = f"""import os, sys
{PIN_OPENBLAS}
import numpy, click, orjson
before = set(sys.modules)
import nsg.cli
print(*sorted(sys.modules.keys() - before))
"""


def child_env(src: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(src), "SOURCE_DATE_EPOCH": "0", "NSG_THREADS": "1"}


def added_modules(src: Path) -> list[str]:
    """The modules that ``import nsg.cli`` adds to ``import numpy, click,
    orjson``, sorted by name."""
    argv = [sys.executable, "-c", ADDED]
    return subprocess.run(argv, env=child_env(src), capture_output=True, text=True, check=True).stdout.split()


def measure(src: Path, code: str) -> dict:
    env = child_env(src)
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-c", HOOK + code], env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    with child.stderr:
        err = child.stderr.read()
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        raise RuntimeError(f"{code!r} exited {child.returncode}: {err.decode(errors='replace')}")
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mib": usage.ru_maxrss / 1024,
        "threads": int(err.split()[-2]),
        "dont_write_bytecode": int(err.split()[-1]),
    }


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src")
    parser.add_argument("--rounds", type=int, default=9)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    samples: dict[str, list[dict]] = {name: [] for name in COMMANDS}
    for _ in range(args.rounds):
        for name, code in COMMANDS.items():
            samples[name].append(measure(args.src.resolve(), code))
    added = added_modules(args.src.resolve())
    results = []
    for name, rows in samples.items():
        row = {"command": name, "rounds": args.rounds}
        row.update({key: statistics.median(r[key] for r in rows) for key in rows[0]})
        if name == "import nsg.cli":
            row["added_modules"] = added
        results.append(row)
        if not args.json:
            print(
                f"{name}: wall {row['wall_s']:.3f} s, cpu {row['cpu_s']:.3f} s, "
                f"peak RSS {row['peak_rss_mib']:.1f} MiB, threads {row['threads']:g}, "
                f"dont_write_bytecode {row['dont_write_bytecode']:g}",
                flush=True,
            )
            if name == "import nsg.cli":
                print(f"import nsg.cli adds: {', '.join(added)}", flush=True)
    if args.json:
        print(json.dumps(results))


if __name__ == "__main__":
    main(sys.argv[1:])
