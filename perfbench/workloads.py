"""The benchmark's four workloads and the loops that measure them.

* ``sim-mix`` — in-process ``simulate_trace`` over a fixed, odd-length
  list of cells (three configurations x three seeded trace kinds).  The
  simulator layers do almost all the work.
* ``sweep-cold`` — one ``repro sweep --spec ... --parallel`` subprocess
  per op, fresh cache each time, over seeded trace files.  What a user
  waits for: CLI import, spec expansion, pool spawn, per-worker trace
  loading, simulation, cache writes, JSON output.
* ``report-warm`` — in-process ``api.report`` over a cache filled during
  set-up.  The simulator does nothing; cache reads, the experiments
  adapters and the report renderers do all of it.
* ``serve-open`` — a ``repro serve`` subprocess fed an open-loop,
  seeded arrival schedule by one submitter and one collector thread.

Every op of a workload does the same work, checks its own output, and
is timed around the call into the program only; the checks run outside
the timed region.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import queue
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import hostspeed
from tracer import Tracer, layer_tracer

from repro import api
from repro.runner.job import SimJob
from repro.runner.spec import ExperimentSpec
from repro.service.client import ServiceClient
from repro.service.driver import percentile as driver_percentile
from repro.sim.config import SystemConfig
from repro.sim.simulator import simulate_trace
from repro.workloads.generators import (
    MixedIrregularWorkload,
    PointerChaseWorkload,
    StreamingWorkload,
)
from repro.workloads.suite import clear_trace_cache, make_trace

TERMINAL = ("done", "failed", "timeout")
#: The submitter samples the host's speed only when the next request is
#: due at least this far ahead, so the sample never delays a request.
PROBE_SLACK_S = 0.03


@dataclass
class Context:
    """What a workload gets from the command line and ``config.json``."""

    seed: int
    seconds: float
    params: Dict[str, Any]      # this workload's section of config.json
    env: Dict[str, str]         # environment for program subprocesses


@dataclass
class OpOutcome:
    latency_s: float
    work: float
    error: Optional[str] = None


@dataclass
class Measurement:
    """Everything one measured phase produced.

    ``record`` keeps each op's outcome with the host-speed sample taken
    around it; ``scale`` then fills the latency lists, work and SLO count
    with every latency at the reference speed (see ``hostspeed``).
    """

    untraced_ms: List[float] = field(default_factory=list)
    traced_ms: List[float] = field(default_factory=list)
    #: Untraced latencies as the host clock read them, unscaled.
    raw_untraced_ms: List[float] = field(default_factory=list)
    #: One host-speed sample (ms) per op, in op order; None if none was taken.
    kernel_ms: List[Optional[float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    untraced_attempted: int = 0
    slo_met: int = 0
    work: float = 0.0
    busy_s: float = 0.0
    errors: List[str] = field(default_factory=list)
    #: Per-layer metrics the workload computes itself (name -> value).
    layers: Dict[str, float] = field(default_factory=dict)
    #: Free-form detail lines printed before the result (e.g. per cell).
    detail: List[str] = field(default_factory=list)
    _ops: List[Tuple[OpOutcome, bool]] = field(default_factory=list)

    def record(self, outcome: OpOutcome, traced: bool,
               kernel_ms: Optional[float]) -> None:
        self.attempted += 1
        if not traced:
            self.untraced_attempted += 1
        self.kernel_ms.append(kernel_ms)
        self._ops.append((outcome, traced))
        if outcome.error is not None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(outcome.error)

    def scale(self, slo_ms: float, exponent: float, window: int = 1) -> None:
        """Fill the latency figures at the reference host speed.

        Each op's host speed is the median of the samples of the
        ``window`` ops centred on it, or of the whole run where those
        ops have none.
        """
        taken = [value for value in self.kernel_ms if value is not None]
        overall = statistics.median(taken) if taken else None
        half = window // 2
        speeds = []
        for index in range(len(self._ops)):
            near = [value for value in self.kernel_ms[max(0, index - half):index + half + 1]
                    if value is not None]
            speeds.append(statistics.median(near) if near else overall)
        for (outcome, traced), kernel_ms in zip(self._ops, speeds):
            if outcome.error is not None:
                continue
            raw_ms = 1000.0 * outcome.latency_s
            latency_ms = raw_ms * hostspeed.factor(kernel_ms, exponent)
            if traced:
                self.traced_ms.append(latency_ms)
                continue
            self.raw_untraced_ms.append(raw_ms)
            self.untraced_ms.append(latency_ms)
            self.work += outcome.work
            self.busy_s += latency_ms / 1000.0
            if latency_ms <= slo_ms:
                self.slo_met += 1


def digest(value: Any) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True, default=str)
                          .encode("utf-8")).hexdigest()


def tree_digest(directory: Path) -> str:
    """One digest over every file's name and bytes under ``directory``."""
    sha = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            sha.update(str(path.relative_to(directory)).encode("utf-8"))
            sha.update(path.read_bytes())
    return sha.hexdigest()


def percentile(values: List[float], q: float) -> float:
    """The ``q``-th percentile (0..100); 0 when nothing was measured."""
    return driver_percentile(values, q) if values else 0.0


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------- #
# The workload interface and the closed-loop workloads
# ---------------------------------------------------------------------- #

class Workload:
    """Set-up, measurement and per-layer read-out of one workload."""

    name = ""
    #: Whose peak RSS is the program's: this process or its children.
    rss_who = resource.RUSAGE_SELF
    #: Whether the traced run wraps the simulator layers in this process.
    trace_sim = True

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.p = ctx.params
        #: How this workload samples the host's speed, and how strongly
        #: its op time follows that speed (see ``hostspeed``).
        self.probe = hostspeed.PROBES[self.p["speed_probe"]]
        self.exponent = float(self.p["speed_exponent"])

    def setup(self, directory: Path) -> None:
        """Build this run's inputs and state under ``directory``."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Stop what ``setup`` started (servers); files are removed later."""

    def prepare(self, trace_run: bool) -> None:
        """Run the untimed op(s) that fix the expected outputs."""
        raise NotImplementedError

    def tracer(self) -> Tracer:
        return layer_tracer(include_sim=self.trace_sim)

    def measure(self, seconds: float, tracer: Optional[Tracer]) -> Measurement:
        """Measure for ``seconds``; ops run traced only when ``tracer`` is set."""
        raise NotImplementedError

    def trace_layers(self, tracer: Tracer, m: Measurement) -> None:
        """Add this workload's own per-layer metrics to ``m.layers``."""


class ClosedLoop(Workload):
    """One client that issues the next op when the previous one ends."""

    def op(self) -> OpOutcome:
        """One end-to-end op: timed program call, then its checks."""
        raise NotImplementedError

    def trace_op(self) -> OpOutcome:
        """The op the traced run interleaves traced and untraced."""
        return self.op()

    def measure(self, seconds: float, tracer: Optional[Tracer]) -> Measurement:
        """Run ops back to back for ``seconds``.

        In the traced run, odd ops run with the tracer installed and even
        ops without, so the two latency samples share the same drift.
        Each op starts from a freshly collected heap, so a full garbage
        collection left over from the previous op's checks does not land
        inside the next op's timed region.  Each op is bracketed, outside
        its timed region, by two host-speed samples.
        """
        slo_ms = float(self.p["slo_ms"])
        op: Callable[[], OpOutcome] = self.op if tracer is None else self.trace_op
        m = Measurement()
        deadline = perf_counter() + seconds
        index = 0
        while perf_counter() < deadline:
            traced = tracer is not None and index % 2 == 1
            index += 1
            gc.collect()
            before = self.probe()
            if traced:
                tracer.install()
            try:
                outcome = op()
            except Exception as exc:  # an op that raises is a failed op
                outcome = OpOutcome(0.0, 0.0, _error(exc))
            finally:
                if traced:
                    tracer.uninstall()
            m.record(outcome, traced, (before + self.probe()) / 2.0)
        m.scale(slo_ms, self.exponent)
        return m


class SimMix(ClosedLoop):
    """Repeated in-process ``simulate_trace`` over a fixed list of cells."""

    name = "sim-mix"

    def setup(self, directory: Path) -> None:
        seed, n = self.ctx.seed, int(self.p["accesses_per_cell"])
        generators = [
            # Footprint far above the LLC: DRAM, Hermes and POPET busy.
            PointerChaseWorkload("chase", seed=seed),
            # A prefetcher-covered stream.
            StreamingWorkload("stream", seed=seed),
            # A hot set that fits in the L1: hit fast paths, DRAM idle.
            MixedIrregularWorkload("hot", seed=seed,
                                   hot_set_kb=int(self.p["hot_set_kb"]),
                                   cold_probability=0.0),
        ]
        started = perf_counter()
        traces = [generator.generate(n) for generator in generators]
        self.trace_gen_ms = 1000.0 * (perf_counter() - started)
        configs = [
            ("none", SystemConfig.no_prefetching()),
            ("spp+popet", SystemConfig.with_hermes("popet", prefetcher="spp")),
            ("pythia+popet",
             SystemConfig.with_hermes("popet", prefetcher="pythia")),
        ]
        self.cells = [(f"{trace.name}/{label}", config, trace)
                      for trace in traces for label, config in configs]
        self.accesses = float(n * len(self.cells))
        self.systems: List[Any] = []
        self.last_systems: List[Any] = []
        self.last_results: List[Any] = []

    def _run_cells(self) -> Tuple[float, List[Any]]:
        del self.systems[:]
        started = perf_counter()
        results = [simulate_trace(config, trace)
                   for _, config, trace in self.cells]
        latency = perf_counter() - started
        if len(self.systems) == len(self.cells):
            self.last_systems = list(self.systems)
        return latency, results

    @staticmethod
    def _digests(results: List[Any]) -> List[str]:
        return [digest(dataclasses.asdict(result)) for result in results]

    def prepare(self, trace_run: bool) -> None:
        _, results = self._run_cells()
        self.expected = self._digests(results)

    def op(self) -> OpOutcome:
        latency, results = self._run_cells()
        self.last_results = results
        got = self._digests(results)
        bad = [name for (name, _, _), want, have
               in zip(self.cells, self.expected, got) if want != have]
        return OpOutcome(latency, self.accesses,
                         f"result digest changed for {bad}" if bad else None)

    def tracer(self) -> Tracer:
        return layer_tracer(include_sim=True,
                            observe_system=self.systems.append)

    def trace_layers(self, tracer: Tracer, m: Measurement) -> None:
        m.layers["workloads.trace_gen_ms"] = self.trace_gen_ms
        rows = []
        for (name, _, _), result, system in zip(self.cells, self.last_results,
                                                self.last_systems):
            dram = system.memory_controller.stats
            row_accesses = dram.row_hits + dram.row_misses + dram.row_conflicts
            issued = result.hermes.get("hermes_requests_issued", 0)
            rows.append({
                "cell": name,
                "cpu.ipc": result.ipc,
                "memory.llc_mpki": result.llc_mpki,
                "offchip.accuracy": (result.predictor_accuracy
                                     if result.predictor else None),
                "offchip.coverage": (result.predictor_coverage
                                     if result.predictor else None),
                "core.hermes_issued": issued,
                "core.hermes_useful": result.hermes.get(
                    "hermes_requests_useful", 0),
                "prefetchers.fills": result.llc.get("prefetch_fills", 0),
                "prefetchers.useful": result.llc.get("useful_prefetches", 0),
                "dram.reads": dram.total_reads,
                "dram.row_hits": dram.row_hits,
                "dram.row_accesses": row_accesses,
            })
        if not rows:
            return
        predicted = [row for row in rows if row["offchip.accuracy"] is not None]
        prefetched = [row for row in rows if row["cell"].split("/")[1] != "none"]
        issued = sum(row["core.hermes_issued"] for row in rows)
        fills = sum(row["prefetchers.fills"] for row in prefetched)
        row_accesses = sum(row["dram.row_accesses"] for row in rows)
        m.layers.update({
            "cpu.ipc": sum(row["cpu.ipc"] for row in rows) / len(rows),
            "memory.llc_mpki": (sum(row["memory.llc_mpki"] for row in rows)
                                / len(rows)),
            "offchip.accuracy": (sum(row["offchip.accuracy"] for row in predicted)
                                 / max(1, len(predicted))),
            "offchip.coverage": (sum(row["offchip.coverage"] for row in predicted)
                                 / max(1, len(predicted))),
            "core.hermes_issued": float(issued),
            "core.hermes_useful_ratio": (
                sum(row["core.hermes_useful"] for row in rows) / issued
                if issued else 0.0),
            "prefetchers.useful_ratio": (
                sum(row["prefetchers.useful"] for row in prefetched) / fills
                if fills else 0.0),
            "dram.reads": float(sum(row["dram.reads"] for row in rows)),
            "dram.row_hit_ratio": (
                sum(row["dram.row_hits"] for row in rows) / row_accesses
                if row_accesses else 0.0),
        })
        for row in rows:
            m.detail.append("cell " + json.dumps(row, sort_keys=True))


_SWEEP_SPEC = """\
# Generated by the benchmark: 3 prefetchers x 2 Hermes settings x 2
# seeded trace files = 12 jobs.
spec_version = 1
name = "perfbench-sweep"
accesses = {accesses}
workloads = {workloads}

[base]
"hermes.issue_latency" = 6

[[axes]]
name = "prefetcher"
[[axes.points]]
label = "none"
[axes.points.set]
prefetcher = "none"
[[axes.points]]
label = "pythia"
[axes.points.set]
prefetcher = "pythia"
[[axes.points]]
label = "spp"
[axes.points.set]
prefetcher = "spp"

[[axes]]
name = "hermes"
[[axes.points]]
label = "off"
[[axes.points]]
label = "popet"
[axes.points.set]
offchip_predictor = "popet"
"hermes.enabled" = true
"""


class SweepCold(ClosedLoop):
    """One cold ``repro sweep --parallel`` subprocess per op."""

    name = "sweep-cold"
    rss_who = resource.RUSAGE_CHILDREN
    # Pool workers fork from this process: simulator wrappers installed
    # here would slow them while their spans stay out of reach.
    trace_sim = False

    def setup(self, directory: Path) -> None:
        seed, n = self.ctx.seed, int(self.p["accesses"])
        self.dir = directory
        self.traces = []
        for generator in (PointerChaseWorkload("chase", seed=seed),
                          StreamingWorkload("stream", seed=seed)):
            path = directory / f"{generator.name}.rptr"
            generator.generate(n).to_file(path)
            self.traces.append(path)
        self.spec = directory / "spec.toml"
        self.spec.write_text(_SWEEP_SPEC.format(
            accesses=n, workloads=json.dumps([str(p) for p in self.traces])),
            encoding="utf-8")
        self.jobs = 12
        self.accesses = float(self.jobs * n)
        self.durations_ms: List[float] = []

    def _cli_sweep(self) -> Tuple[float, Optional[str], bytes]:
        cache = self.dir / "cache"
        out = self.dir / "out.json"
        shutil.rmtree(cache, ignore_errors=True)
        if out.exists():
            out.unlink()
        command = [sys.executable, "-m", "repro.cli", "sweep",
                   "--spec", str(self.spec), "--parallel",
                   "--max-workers", str(self.p["max_workers"]),
                   "--cache-dir", str(cache), "--output", str(out)]
        started = perf_counter()
        proc = subprocess.run(command, env=self.ctx.env, cwd=self.dir,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=120)
        latency = perf_counter() - started
        if proc.returncode != 0:
            tail = proc.stderr.decode("utf-8", "replace").strip()[-300:]
            return latency, f"sweep exited {proc.returncode}: {tail}", b""
        data = out.read_bytes()
        doc = json.loads(data)
        if doc.get("jobs") != self.jobs or len(doc.get("rows", [])) != self.jobs:
            return latency, f"sweep reported {doc.get('jobs')} job(s)", data
        return latency, None, data

    def _api_sweep(self) -> Tuple[float, Optional[str], str]:
        cache = self.dir / "cache-api"
        shutil.rmtree(cache, ignore_errors=True)
        started = perf_counter()
        spec = ExperimentSpec.from_file(self.spec)
        results, report = api.sweep_report(
            spec, parallel=True, max_workers=int(self.p["max_workers"]),
            cache_dir=cache)
        latency = perf_counter() - started
        self.durations_ms.append(
            1000.0 * sum(outcome.duration_s for outcome in report.outcomes))
        ok = len(report.succeeded)
        if ok != self.jobs:
            return latency, f"{ok}/{self.jobs} jobs succeeded", ""
        return latency, None, digest([r.as_dict() for r in results])

    def prepare(self, trace_run: bool) -> None:
        _, error, self.expected = (self._api_sweep() if trace_run
                                   else self._cli_sweep())
        if error is not None:
            raise RuntimeError(f"reference sweep failed: {error}")
        self.durations_ms.clear()

    def op(self) -> OpOutcome:
        latency, error, output = self._cli_sweep()
        if error is None and output != self.expected:
            error = "sweep --output bytes changed"
        return OpOutcome(latency, self.accesses, error)

    def trace_op(self) -> OpOutcome:
        latency, error, output = self._api_sweep()
        if error is None and output != self.expected:
            error = "sweep results changed"
        return OpOutcome(latency, self.accesses, error)

    def trace_layers(self, tracer: Tracer, m: Measurement) -> None:
        imports = []
        for _ in range(int(self.p["import_repeats"])):
            proc = subprocess.run(
                [sys.executable, "-c",
                 "import time; t = time.perf_counter(); import repro.cli.main; "
                 "print(time.perf_counter() - t)"],
                env=self.ctx.env, cwd=self.dir, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, timeout=60, check=True)
            imports.append(1000.0 * float(proc.stdout))
        loads = []
        for _ in range(int(self.p["import_repeats"])):
            clear_trace_cache()
            started = perf_counter()
            for path in self.traces:
                make_trace(str(path), int(self.p["accesses"]))
            loads.append(1000.0 * (perf_counter() - started))
        m.layers["cli.import_ms"] = percentile(imports, 50)
        m.layers["workloads.trace_load_ms"] = percentile(loads, 50)
        m.layers["runner.job_duration_sum_ms"] = percentile(self.durations_ms, 50)


class ReportWarm(ClosedLoop):
    """In-process ``api.report`` over a cache filled during set-up."""

    name = "report-warm"

    def setup(self, directory: Path) -> None:
        # The figure runners draw catalogue workloads, whose generator
        # seeds are fixed in the catalogue; the seed picks the trace
        # length, so each seed fills (and then reads) a different cache.
        p = self.p
        accesses = (int(p["accesses_base"])
                    + int(p["accesses_step"]) * (self.ctx.seed % int(p["accesses_choices"])))
        self.kwargs = dict(cache_dir=directory / "cache", accesses=accesses,
                           per_category=int(p["per_category"]),
                           categories=list(p["categories"]))
        self.figures = list(p["figures"])
        self.out = directory / "out"
        clear_trace_cache()
        api.report(self.figures, out_dir=directory / "fill", **self.kwargs)

    def _report(self) -> Tuple[float, Any]:
        # Each op writes its artifacts into a new directory.  Rewriting
        # the previous op's files in place makes the filesystem flush each
        # truncated file as it is closed, which tripled the write time and
        # made it the largest and least steady part of the op.
        shutil.rmtree(self.out, ignore_errors=True)
        started = perf_counter()
        summary = api.report(self.figures, out_dir=self.out, **self.kwargs)
        return perf_counter() - started, summary

    def prepare(self, trace_run: bool) -> None:
        _, summary = self._report()
        if summary.cache_misses or summary.failures:
            raise RuntimeError("warm report missed the cache it just filled")
        self.expected = (summary.cache_hits, tree_digest(self.out))

    def op(self) -> OpOutcome:
        latency, summary = self._report()
        error = None
        if summary.cache_misses:
            error = f"{summary.cache_misses} cache miss(es)"
        elif summary.failures:
            error = f"{len(summary.failures)} figure(s) failed"
        elif (summary.cache_hits, tree_digest(self.out)) != self.expected:
            error = "report artifacts changed"
        return OpOutcome(latency, float(summary.cache_hits), error)


# ---------------------------------------------------------------------- #
# Open loop: the service
# ---------------------------------------------------------------------- #

@dataclass
class Request:
    index: int
    offset_s: float             # due time, relative to the schedule start
    label: str
    kind: str                   # "unique", "warm", "repeat" or "follow"
    job: Dict[str, Any]
    key: Optional[str] = None
    late_s: float = 0.0
    kernel_ms: Optional[float] = None   # host speed, sampled before it was due
    submit_s: float = 0.0
    submit_status: Optional[str] = None     # the job's status at submit
    done_at: Optional[float] = None
    status: Optional[str] = None
    run_s: Optional[float] = None
    payload: Optional[bytes] = None
    error: Optional[str] = None


class ServeOpen(Workload):
    """Open-loop, seeded requests against a ``repro serve`` subprocess."""

    name = "serve-open"
    rss_who = resource.RUSAGE_CHILDREN
    trace_sim = False  # the simulations run in the server process
    server: Optional[subprocess.Popen] = None

    # -- inputs -------------------------------------------------------- #

    def _schedule(self, trace: Path) -> List[Request]:
        """Arrival times and keys, both drawn from the seed.

        Slot ``i`` is due at ``(i + 0.5 + j) / rate`` with a seeded
        jitter ``j`` in [-0.3, 0.3]: a fixed offered rate and request
        count, without the bursts a Poisson process puts in some seeds
        and not others (at this rate a burst of two unique jobs doubles
        both their times on the GIL-bound server, so the p90 of a
        Poisson schedule measures the seed's burstiness, not the
        service).  The shares of each kind are exact counts at seeded
        slots, so every seed offers the same work:

        * ``unique`` — a new key; the server executes it.
        * ``warm`` — a key computed into the server's cache in set-up.
        * ``repeat`` — one of the last ``repeat_window`` unique keys, due
          a slot or more after it, so it mostly finds the job done.
        * ``follow`` — the latest unique key, due ``follow_ms`` after it
          instead of at its own slot, so it reaches the server while that
          job is still queued or running and attaches to it in flight:
          the single-flight path.
        """
        p = self.p
        rng = random.Random(self.ctx.seed)
        rate = float(p["rate_per_s"])
        count = max(2, int(rate * self.ctx.seconds))
        shares = {kind: round(float(p[f"{kind}_share"]) * count)
                  for kind in ("repeat", "follow", "warm")}
        kinds = [kind for kind, n in shares.items() for _ in range(n)]
        kinds += ["unique"] * (count - len(kinds))
        rng.shuffle(kinds)
        first_unique = kinds.index("unique")
        kinds[0], kinds[first_unique] = kinds[first_unique], kinds[0]
        follow_lo, follow_hi = (float(ms) / 1000.0 for ms in p["follow_ms"])
        base = SystemConfig.with_hermes("popet", prefetcher="spp")
        requests: List[Request] = []
        unique: List[Tuple[str, float]] = []     # (label, due offset)
        warm = 0
        for slot, kind in enumerate(kinds):
            offset = (slot + 0.5 + 0.6 * (rng.random() - 0.5)) / rate
            if kind == "repeat":
                label = rng.choice(unique[-int(p["repeat_window"]):])[0]
            elif kind == "follow":
                label, due = unique[-1]
                offset = due + rng.uniform(follow_lo, follow_hi)
            elif kind == "warm":
                label = f"w{warm:05d}"
                warm += 1
            else:
                label = f"u{len(unique):05d}"
                unique.append((label, offset))
            job = SimJob(base.with_label(label), str(trace), int(p["accesses"]))
            requests.append(Request(slot, offset, label, kind, job.to_dict()))
        requests.sort(key=lambda request: request.offset_s)
        for index, request in enumerate(requests):
            request.index = index
        return requests

    def setup(self, directory: Path) -> None:
        trace = directory / "job.rptr"
        PointerChaseWorkload("chase", seed=self.ctx.seed).generate(
            int(self.p["accesses"])).to_file(trace)
        self.requests = self._schedule(trace)
        cache = directory / "cache"
        warm_jobs = [SimJob.from_dict(r.job) for r in self.requests
                     if r.kind == "warm"]
        if warm_jobs:
            api.sweep(warm_jobs, cache_dir=cache)
        port_file = directory / "port"
        self.log = open(directory / "serve.log", "wb")
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--port-file", str(port_file), "--cache-dir", str(cache),
             "--max-workers", str(self.p["max_workers"])],
            env=self.ctx.env, cwd=directory, stdout=self.log,
            stderr=subprocess.STDOUT)
        deadline = perf_counter() + 60
        while not port_file.exists() or not port_file.read_text().strip():
            if self.server.poll() is not None or perf_counter() > deadline:
                raise RuntimeError("repro serve did not start")
            time.sleep(0.01)
        self.url = f"http://127.0.0.1:{int(port_file.read_text())}"
        ServiceClient(self.url).health()

    def teardown(self) -> None:
        if self.server is None:
            return
        try:
            ServiceClient(self.url, timeout=5).shutdown()
            self.server.wait(timeout=15)
        except Exception:  # the server is stopped below either way
            pass
        if self.server.poll() is None:
            self.server.kill()
            self.server.wait()
        self.server = None
        self.log.close()

    def prepare(self, trace_run: bool) -> None:
        """Nothing to fix up front: repeated keys check against each other."""

    # -- the open loop ------------------------------------------------- #

    def measure(self, seconds: float, tracer: Optional[Tracer]) -> Measurement:
        """Submit on schedule from one thread, collect from another.

        Latency runs from a request's *due* time to the collector seeing
        it done, so a stalled submitter shows up in every later request.
        In the traced run, odd requests are submitted with the tracer
        installed.  While it waits for a request's due time, the
        submitter samples the host's speed if there is time to spare.
        """
        requests = self.requests
        pending: "queue.Queue[Optional[Request]]" = queue.Queue()
        start = perf_counter() + 0.05

        def submitter() -> None:
            client = ServiceClient(self.url, timeout=60)
            for request in requests:
                due = start + request.offset_s
                if due - perf_counter() > PROBE_SLACK_S:
                    request.kernel_ms = self.probe()
                delay = due - perf_counter()
                if delay > 0:
                    time.sleep(delay)
                request.late_s = perf_counter() - due
                traced = tracer is not None and request.index % 2 == 1
                if traced:
                    tracer.install()
                try:
                    sent = perf_counter()
                    submission = client.submit(jobs=[request.job])
                    request.submit_s = perf_counter() - sent
                    doc = submission.jobs[0]
                    request.key = doc["key"]
                    request.submit_status = doc["status"]
                    if doc["status"] in TERMINAL:
                        request.done_at = perf_counter()
                        request.status = doc["status"]
                except Exception as exc:  # counted as a failed request
                    request.error = _error(exc)
                finally:
                    if traced:
                        tracer.uninstall()
                pending.put(request)
            pending.put(None)

        def collector() -> None:
            client = ServiceClient(self.url, timeout=60)
            give_up = start + seconds + float(self.p["drain_s"])
            while True:
                request = pending.get()
                if request is None:
                    return
                if request.error is not None:
                    continue
                try:
                    doc = client.job(request.key, wait=1.0)
                    while doc["status"] not in TERMINAL:
                        if perf_counter() > give_up:
                            raise TimeoutError("not done before the drain limit")
                        doc = client.job(request.key, wait=1.0)
                    if request.done_at is None:
                        request.done_at = perf_counter()
                    request.status = doc["status"]
                    request.run_s = doc.get("duration_s")
                    request.payload = json.dumps(
                        doc.get("result"), sort_keys=True,
                        separators=(",", ":")).encode("utf-8")
                except Exception as exc:  # counted as a failed request
                    request.error = _error(exc)

        # Daemon threads: a SIGTERM unwinds the main thread without
        # waiting out the schedule; normally both are joined below.
        threads = [threading.Thread(target=submitter, name="perfbench-submit",
                                    daemon=True),
                   threading.Thread(target=collector, name="perfbench-collect",
                                    daemon=True)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = ServiceClient(self.url).stats()
        return self._tally(requests, start, stats, tracer is not None)

    def _tally(self, requests: List[Request], start: float,
               stats: Dict[str, Any], trace_run: bool) -> Measurement:
        m = Measurement()
        slo_ms = float(self.p["slo_ms"])
        payloads: Dict[str, bytes] = {}
        last_done = start
        for request in requests:
            traced = trace_run and request.index % 2 == 1
            error = request.error
            if error is None and request.status != "done":
                error = f"job ended {request.status!r}"
            if error is None:
                first = payloads.setdefault(request.label, request.payload)
                if first != request.payload:
                    error = f"key {request.label} returned different payload bytes"
            if error is not None:
                m.record(OpOutcome(0.0, 0.0, f"request {request.index}: {error}"),
                         traced, request.kernel_ms)
                continue
            latency = request.done_at - (start + request.offset_s)
            last_done = max(last_done, request.done_at)
            m.record(OpOutcome(latency, 1.0), traced, request.kernel_ms)
        # One sample per request is noisier than the two around a closed-loop
        # op, and requests sent without slack have none: take the median
        # of the samples of three neighbouring requests.
        m.scale(slo_ms, self.exponent, window=3)
        # Exactly-once accounting against the schedule.
        kinds = [r.kind for r in requests]
        expected = {"executed": kinds.count("unique"),
                    "cache_hits": kinds.count("warm"),
                    "attached": kinds.count("repeat") + kinds.count("follow")}
        got = {name: int(stats.get(name, -1)) for name in expected}
        if got != expected:
            m.failed += 1
            m.errors.append(f"service counters {got} != schedule {expected}")
        # A generator that ran late offered a lower rate than the schedule
        # says: such a run does not measure the service at that rate.
        late_ms_p90 = percentile([1000.0 * r.late_s for r in requests], 90)
        late_limit_ms = float(self.p["late_limit_ms"])
        if late_ms_p90 > late_limit_ms:
            m.failed += 1
            m.errors.append(f"submitter lateness p90 {late_ms_p90:.3g} ms "
                            f"> {late_limit_ms:g} ms: the run is invalid")
        # Repeats whose submit found the job not yet finished attached to
        # it in flight; the others found it done.
        repeats = [r for r in requests if r.kind in ("repeat", "follow")]
        in_flight = sum(1 for r in repeats if r.submit_status is not None
                        and r.submit_status not in TERMINAL)
        m.detail.append(
            f"generator lateness p90 = {late_ms_p90:.4g} ms "
            f"(limit {late_limit_ms:g} ms); repeats attached in flight: "
            f"{in_flight} of {len(repeats)} "
            f"({kinds.count('follow')} scheduled {self.p['follow_ms']} ms "
            f"after their key)")
        # Closed-loop busy time has no meaning here: throughput is over
        # the span from the first due time to the last completion.
        m.busy_s = max(1e-9, last_done - start)
        executed = [r for r in requests
                    if r.kind == "unique" and r.error is None and r.run_s is not None
                    and r.done_at is not None]
        m.layers.update({
            "service.submit_ms_p50": percentile(
                [1000.0 * r.submit_s for r in requests if r.error is None], 50),
            "service.run_ms_p50": percentile(
                [1000.0 * r.run_s for r in executed], 50),
            "service.queue_wait_ms_p50": percentile(
                [1000.0 * (r.done_at - start - r.offset_s - r.run_s)
                 for r in executed], 50),
            "service.executed": float(got["executed"]),
            "service.attached": float(got["attached"]),
            "service.cache_hits": float(got["cache_hits"]),
            "service.dedup_ratio": ((got["attached"] + got["cache_hits"])
                                    / max(1, len(requests))),
            "service.gen_late_ms_p90": late_ms_p90,
            "service.inflight_attach_ratio": in_flight / max(1, len(repeats)),
        })
        return m


WORKLOADS = {cls.name: cls for cls in (SimMix, SweepCold, ReportWarm, ServeOpen)}
