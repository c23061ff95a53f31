#!/usr/bin/env python3
"""Self-test: a broken expectation must be counted as a failed op.

For each workload this sets up once, lets the workload fix its expected
outputs, then breaks one expectation and measures for a moment.  Every
op that meets the broken expectation must come back failed (and count
against ``correct``), so a benchmark that silently passed wrong output
is caught here.  ``serve-open-late`` also checks that a run whose
generator fell behind its schedule is counted as failed.  Run from the
checkout root::

    python3 perfbench/selftest.py [--checks sim-mix serve-open-late ...]

Exits 0 when every check counted its failures, 1 otherwise.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from typing import Any, Callable, Dict, Tuple

import run


def _break_sim_mix(workload: Any) -> None:
    workload.expected[0] = "0" * 64


def _break_sweep_cold(workload: Any) -> None:
    workload.expected = b"{}"


def _break_report_warm(workload: Any) -> None:
    hits, tree = workload.expected
    workload.expected = (hits + 1, tree)


def _break_serve_open(workload: Any) -> None:
    # Claim a repeated request asked for another key than it did: its
    # payload bytes then differ from that key's first answer.
    repeats = [r for r in workload.requests if r.kind == "repeat"]
    other = next(r.label for r in workload.requests
                 if r.kind == "unique" and r.label != repeats[0].label)
    repeats[0].label = other


def _break_serve_open_lateness(workload: Any) -> None:
    # Any lateness at all now exceeds the limit: the run must be invalid.
    workload.p = dict(workload.p, late_limit_ms=-1.0)


#: check name -> (workload, how to break it, failures expected of n ops).
BREAKERS: Dict[str, Tuple[str, Callable[[Any], None], Callable[[int], int]]] = {
    "sim-mix": ("sim-mix", _break_sim_mix, lambda ops: ops),
    "sweep-cold": ("sweep-cold", _break_sweep_cold, lambda ops: ops),
    "report-warm": ("report-warm", _break_report_warm, lambda ops: ops),
    # serve-open breaks one request of many; the others must still pass.
    "serve-open": ("serve-open", _break_serve_open, lambda ops: 1),
    # The whole run is counted as one more failed op.
    "serve-open-late": ("serve-open", _break_serve_open_lateness,
                        lambda ops: 1),
}


def check(check_name: str, config: Dict[str, Any], seconds: float) -> bool:
    import workloads as wl

    name, breaker, failures = BREAKERS[check_name]
    ctx = wl.Context(seed=int(config["default_seed"]),
                     seconds=seconds, params=config["workloads"][name],
                     env=config["env"])
    workload = wl.WORKLOADS[name](ctx)
    directory = run.ROOT / ".perfbench_work" / f"selftest-{check_name}"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    try:
        workload.setup(directory)
        workload.prepare(False)
        breaker(workload)
        m = workload.measure(seconds, None)
    finally:
        workload.teardown()
        shutil.rmtree(directory, ignore_errors=True)
    wanted = failures(m.attempted)
    ok = m.attempted > 0 and m.failed == wanted
    print(f"{check_name}: {m.failed} of {m.attempted} ops failed "
          f"(expected {wanted}) -> {'ok' if ok else 'NOT COUNTED'}"
          + (f"; first: {m.errors[0]}" if m.errors else ""))
    return ok


def main() -> int:
    config = run.bootstrap()
    if config is None:
        return 2
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checks", nargs="+", choices=sorted(BREAKERS),
                        default=list(BREAKERS))
    parser.add_argument("--seconds", type=float, default=3.0)
    args = parser.parse_args()
    results = [check(name, config, args.seconds) for name in args.checks]
    try:
        (run.ROOT / ".perfbench_work").rmdir()
    except OSError:
        pass
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
