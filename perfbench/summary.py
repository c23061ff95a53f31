#!/usr/bin/env python3
"""Print every metric of every workload: one untraced and one traced run each.

Runs ``run.py`` with ``--trace 0`` (end-to-end metrics, sample counts,
``error_rate``) and ``--trace 1`` (per-layer metrics with
``trace.overhead_ratio``) for each workload in ``BENCHMARK.json`` and
prints their human-readable lines, each metric with its unit.  Run from
the checkout root::

    python3 perfbench/summary.py [--seed N] [--seconds S]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    config = json.loads((HERE / "config.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=config["default_seed"])
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    status = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in ("0", "1"):
            print(f"== {workload} --trace {trace} (seed {args.seed})", flush=True)
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", trace],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not json.loads(lines[-1])["correct"]:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
