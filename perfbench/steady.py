#!/usr/bin/env python3
"""Check how steady the end-to-end metrics are across seeds.

Runs ``run.py --trace 0`` once per seed for each workload, one run at a
time, and prints for every end-to-end metric its median and its spread:
the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, beside
the metric's bound from ``BENCHMARK.json``.  Run from the checkout
root::

    python3 perfbench/steady.py --workloads sim-mix serve-open --runs 10 \\
        --out perfbench/steadiness.json

``--out`` writes every run's metrics and the per-metric summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median if median else 0.0}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    report: Dict[str, Any] = {"run_seconds": args.seconds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for index in range(args.runs):
            seed = args.first_seed + index
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=600)
            wall = time.perf_counter() - started
            if proc.returncode != 0:
                print(proc.stderr[-2000:], file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"], result["wall_s"] = seed, wall
            runs.append(result)
            print(f"{workload} seed {seed}: wall {wall:.1f}s correct "
                  f"{result['correct']} " + " ".join(
                      f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        summary = {}
        for metric in bench["end_to_end"]:
            values = [run["metrics"][metric["name"]]["value"] for run in runs]
            summary[metric["name"]] = dict(spread(values), bound=metric["bound"],
                                           unit=metric["unit"])
            s = summary[metric["name"]]
            flag = "" if s["iqr_share"] <= metric["bound"] / 3 else "  <-- above bound/3"
            print(f"{workload:<12} {metric['name']:<14} median {s['median']:>12.5g} "
                  f"{metric['unit']:<6} spread {100 * s['iqr_share']:6.2f}% "
                  f"(bound {100 * metric['bound']:.0f}%){flag}", flush=True)
        report["workloads"][workload] = {
            "correct": all(run["correct"] for run in runs),
            "summary": summary, "runs": runs}
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
