#!/usr/bin/env python3
"""Run one benchmark workload on one seed and print its metrics.

Run from the root of a checkout of the repository::

    python3 perfbench/run.py --workload sim-mix --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``
with no tracing installed.  ``--trace 1`` is the separate traced run:
it interleaves untraced ops with ops whose calls into each ``repro``
layer are wrapped (see ``tracer.py``) and reports the per-layer
metrics, including ``trace.overhead_ratio``.  Set-up (inputs, caches,
servers, and the untimed reference op that fixes the expected outputs)
runs several times and ``setup_s`` is the median.  Every host time in
the result line is scaled to a reference host speed sampled beside the
program (see ``hostspeed.py``); the raw figures are printed above it.
Human-readable lines come first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.

The program is imported from ``src/`` and started as
``python -m repro.cli`` subprocesses; scratch files live under
``.perfbench_work/`` and traced spans are written to
``.perfbench_out/``, both inside the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("sim-mix", "sweep-cold", "report-warm", "serve-open")
#: Host-speed samples taken just before and just after each set-up.
SETUP_KERNEL_SAMPLES = 3


def parse_args(argv: Optional[List[str]], default_seed: int,
               default_seconds: float) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=default_seed)
    parser.add_argument("--seconds", type=float, default=default_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _on_sigterm(signum: int, frame: Any) -> None:
    # Unwind through the finally blocks that stop servers and pools.
    raise SystemExit(128 + signum)


def layer_metrics(tracer: Any, m: Any, percentile: Any) -> Dict[str, float]:
    """Per-op layer numbers from the spans of the traced ops."""
    ops = max(1, m.attempted - m.untraced_attempted)
    layers: Dict[str, float] = {}
    for layer in ("cpu", "memory", "prefetchers", "dram", "offchip"):
        layers[f"{layer}.self_ms"] = tracer.self_ms(layer) / ops
        if layer != "cpu":
            layers[f"{layer}.calls"] = tracer.count(layer) / ops
    layers.update({
        "sim.build_ms": tracer.total_ms("sim.build") / ops,
        "config.spec_expand_ms": tracer.total_ms("config.spec_expand") / ops,
        "runner.pool_wall_ms": tracer.total_ms("runner.pool") / ops,
        "runner.cache_put_ms": tracer.total_ms("runner.cache_put") / ops,
        "runner.cache_puts": tracer.count("runner.cache_put") / ops,
        "runner.cache_get_ms": tracer.total_ms("runner.cache_get") / ops,
        "runner.cache_hits": tracer.counters.get("cache_hits", 0) / ops,
        "runner.cache_misses": tracer.counters.get("cache_misses", 0) / ops,
        "experiments.self_ms": tracer.self_ms("experiments") / ops,
    })
    for renderer in ("markdown", "csv", "svg", "json"):
        layers[f"report.render_ms.{renderer}"] = (
            tracer.total_ms(f"report.render.{renderer}") / ops)
    layers["host.op_p50_raw_ms"] = percentile(m.raw_untraced_ms, 50)
    untraced = percentile(m.untraced_ms, 50)
    layers["trace.overhead_ratio"] = (percentile(m.traced_ms, 50) / untraced
                                      if untraced else 0.0)
    return layers


def bootstrap() -> Optional[Dict[str, Any]]:
    """Point this process at the checkout's ``src/``; None if there is none.

    Returns ``config.json`` with ``bench`` (``BENCHMARK.json``) and
    ``env`` (the environment for program subprocesses) added.
    """
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT} holds no src/repro; run the benchmark "
              f"from the root of a checkout of the repository",
              file=sys.stderr)
        return None
    config = json.loads((HERE / "config.json").read_text(encoding="utf-8"))
    config["bench"] = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]  # engine, fault and cache overrides
    config["env"] = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return config


def main(argv: Optional[List[str]] = None) -> int:
    config = bootstrap()
    if config is None:
        return 2
    bench, env = config["bench"], config["env"]
    args = parse_args(argv, int(config["default_seed"]),
                      float(bench["run_seconds"]))
    signal.signal(signal.SIGTERM, _on_sigterm)

    import hostspeed
    import workloads as wl

    ctx = wl.Context(seed=args.seed, seconds=args.seconds,
                     params=config["workloads"][args.workload], env=env)
    workload = wl.WORKLOADS[args.workload](ctx)
    work_root = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    trace_run = bool(args.trace)
    setup_s: List[float] = []       # at the reference host speed
    raw_setup_s: List[float] = []
    kernel_ms: List[float] = []     # host-speed samples of the whole run
    try:
        previous: Optional[Path] = None
        for repeat in range(int(ctx.params["setup_repeats"])):
            if previous is not None:
                workload.teardown()
                shutil.rmtree(previous)
            previous = work_root / f"setup{repeat}"
            previous.mkdir(parents=True)
            around = [workload.probe() for _ in range(SETUP_KERNEL_SAMPLES)]
            started = perf_counter()
            workload.setup(previous)
            workload.prepare(trace_run)
            elapsed = perf_counter() - started
            around += [workload.probe() for _ in range(SETUP_KERNEL_SAMPLES)]
            kernel_ms += around
            raw_setup_s.append(elapsed)
            setup_s.append(elapsed * hostspeed.factor(
                statistics.median(around), workload.exponent))
        tracer = workload.tracer() if trace_run else None
        m = workload.measure(args.seconds, tracer)
        if tracer is not None:
            workload.trace_layers(tracer, m)
    finally:
        workload.teardown()
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            work_root.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there

    kernel_ms += [value for value in m.kernel_ms if value is not None]
    if trace_run:
        metrics = layer_metrics(tracer, m, wl.percentile)
        metrics["host.kernel_ms"] = statistics.median(kernel_ms)
        metrics.update(m.layers)
        wanted = bench["per_layer"]
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "op_p50_ms": wl.percentile(m.untraced_ms, 50),
            "op_p90_ms": wl.percentile(m.untraced_ms, 90),
            "work_per_s": m.work / m.busy_s if m.busy_s else 0.0,
            "peak_rss_mb": resource.getrusage(workload.rss_who).ru_maxrss / 1024.0,
            "slo_met_ratio": m.slo_met / max(1, m.untraced_attempted),
        }
        wanted = bench["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in wanted}
    stray = sorted(set(metrics) - set(units))
    if stray:
        raise SystemExit(f"perfbench: metrics missing from BENCHMARK.json: {stray}")

    name = args.workload
    samples = len(m.traced_ms) if trace_run else len(m.untraced_ms)
    for line in m.detail:
        print(f"{name} {line}")
    for error in m.errors:
        print(f"{name} FAILED {error}")
    print(f"{name} setup runs (s, at reference speed): "
          + " ".join(f"{value:.3f}" for value in setup_s))
    print(f"{name} setup runs (s, raw): "
          + " ".join(f"{value:.3f}" for value in raw_setup_s))
    print(f"{name} raw op p50 = {wl.percentile(m.raw_untraced_ms, 50):.6g} ms, "
          f"p90 = {wl.percentile(m.raw_untraced_ms, 90):.6g} ms; host kernel "
          f"median = {statistics.median(kernel_ms):.4g} ms "
          f"(reference {hostspeed.REFERENCE_MS:g} ms, probe {ctx.params['speed_probe']}, "
          f"exponent {workload.exponent:g})")
    print(f"{name} samples: {len(m.untraced_ms)} untraced, "
          f"{len(m.traced_ms)} traced; work unit: {ctx.params['work_unit']}")
    print(f"{name} error_rate = {m.failed / max(1, m.attempted):.6g} "
          f"({m.failed} of {m.attempted} ops)")
    result: Dict[str, Any] = {}
    for metric in wanted:
        value = float(metrics.get(metric["name"], 0.0))
        result[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{name} {metric['name']} = {value:.6g} {metric['unit']}")
    if trace_run:
        tracer.write(ROOT / ".perfbench_out" / f"spans-{name}-seed{args.seed}.json",
                     {"workload": name, "seed": args.seed, "samples": samples,
                      "metrics": result, "detail": m.detail})
    print(json.dumps({"correct": m.failed == 0 and m.attempted > 0,
                      "attempted": max(1, m.attempted), "failed": m.failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
