"""Run ``bench/run.py`` over several seeds and summarise each metric.

    python3 bench/baseline.py --seeds 1-10 --traced --out bench/baseline.json
    python3 bench/baseline.py --seeds 11-20 --compare bench/baseline.json

For every workload and end-to-end metric it prints the median over the
seeds and the distance between the first and third quartiles as a share of
the median (``statistics.quantiles(values, n=4)``), which is the run-to-run
spread a metric's bound in ``BENCHMARK.json`` has to cover, and the same for
the unscaled times and the speed scale of each run.  With
``--compare`` it also prints how far each median moved from an earlier
summary, which the same bound limits.  With ``--traced`` it also makes one
traced run per workload, on the first seed, and records its per-layer
metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["run"] = json.loads(lines[-2])
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"), help="for example 1-10")
    parser.add_argument("--traced", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    parser.add_argument("--compare", type=Path, help="an earlier summary whose medians to compare against")
    args = parser.parse_args()
    workloads = [w["name"] for w in config["workloads"]]
    seconds = config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    earlier = json.loads(args.compare.read_text())["workloads"] if args.compare else None

    # Seeds outermost, so each workload's runs spread over the whole session
    # and a slow phase of a shared machine does not fall on one workload only.
    results: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in args.seeds:
        for workload in workloads:
            results[workload].append(run(workload, seed, seconds, 0))

    report: dict = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload, runs in results.items():
        if not all(r["correct"] and r["failed"] == 0 for r in runs):
            raise SystemExit(f"{workload}: a run failed its correctness check")
        entry = {"machine": runs[0]["run"]["machine"], "end_to_end": {}, "unscaled": {}}
        for name in bounds:
            stats = summary([r["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name] = stats
            flag = "" if stats["spread"] < bounds[name] / 3 else "  above a third of its bound"
            print(f"{workload:5s} {name:12s} median {stats['median']:10.4f}  spread {stats['spread']:.3f}"
                  f"  bound {bounds[name]}{flag}", flush=True)
        for name in runs[0]["run"]["unscaled"]:
            stats = summary([r["run"]["unscaled"][name] for r in runs])
            entry["unscaled"][name] = stats
            print(f"{workload:5s} {name:12s} median {stats['median']:10.4f}  spread {stats['spread']:.3f}"
                  "  unscaled", flush=True)
        if args.traced:
            traced = run(workload, args.seeds[0], seconds, 1)
            entry["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
        report["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    if earlier is not None:
        for workload, entry in report["workloads"].items():
            for name, stats in entry["end_to_end"].items():
                before = earlier[workload]["end_to_end"][name]["median"]
                change = stats["median"] / before - 1
                flag = "  worse by more than its bound" if change > bounds[name] else ""
                print(f"{workload:5s} {name:12s} median {change:+.3f} against {args.compare}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
