"""A hopperkv-style load driver for the simulation service.

The classic driver/client/workload split (after hopperkv's
``Req`` / ``ReqGenEngine`` / ``Workload``): a *request* is one
submission envelope, an *engine* generates the request sequence
(synthetic, or replayed from a recorded trace), and a *driver workload*
binds an engine to a client pool and an arrival model:

* **closed loop** — each of N clients submits its next request only
  after the previous one completed: throughput is latency-bound, the
  service-benchmark steady state.
* **open loop** — requests arrive on a fixed schedule (``rate``
  requests/second across the pool) regardless of completion, so a slow
  service accumulates in-flight work instead of back-pressuring the
  generator.  Each request's latency counts from its scheduled due
  time, not from when a client got round to sending it, so a backlog
  in the driver's own client pool shows in the latency rather than
  hiding it; how late the sends ran is reported beside it.

Because engines draw their jobs from a bounded universe, concurrent
clients submit heavily *overlapping* work — exactly the traffic shape
the server's single-flight dedup exists for — and
:class:`DriverStats` captures both the client side (latency
percentiles, throughput) and the server side (executed / attached /
cache-hit deltas), so "each unique job simulated exactly once" is an
assertable number, not a narrative.

Runnable directly::

    python -m repro.service.driver --server http://127.0.0.1:8377 \\
        --clients 8 --requests 32 --accesses 2000
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence

from repro.service.client import ServiceClient, ServiceError

#: Default job universe axes for the synthetic engine: small, cheap,
#: and overlapping by construction.
_DEFAULT_WORKLOADS = ("ligra.pagerank", "spec06.stencil", "ligra.bfs")
_DEFAULT_PREFETCHERS = ("pythia", "none")


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation.

    Stdlib-only replacement for ``numpy.percentile`` on the small
    latency samples a driver run produces; values need not be sorted.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


@dataclass
class Req:
    """One load-driver request: a submission envelope plus its fate."""

    index: int
    jobs: List[Dict[str, Any]]
    ticket: Optional[str] = None
    keys: List[str] = field(default_factory=list)
    latency_s: Optional[float] = None
    #: Open loop only: how long after its due time the request was sent.
    late_s: Optional[float] = None
    ok: Optional[bool] = None
    error: Optional[str] = None


class ReqGenEngine:
    """Generates the request sequence a driver workload replays."""

    def reqs(self) -> Iterator[Req]:
        raise NotImplementedError


class SyntheticReqGenEngine(ReqGenEngine):
    """Deterministic random requests drawn from a bounded job universe.

    The universe is the cross product of ``workloads`` x
    ``prefetchers`` at one trace length; each request samples
    ``jobs_per_req`` of its members.  With ``num_requests *
    jobs_per_req`` far above the universe size, overlap (and therefore
    server-side dedup) is guaranteed.  Same seed, same request
    sequence — runs are reproducible and replayable.
    """

    def __init__(self, num_requests: int,
                 workloads: Sequence[str] = _DEFAULT_WORKLOADS,
                 prefetchers: Sequence[str] = _DEFAULT_PREFETCHERS,
                 accesses: int = 2000,
                 jobs_per_req: int = 2,
                 seed: int = 0) -> None:
        if num_requests < 1:
            raise ValueError("num_requests must be positive")
        if jobs_per_req < 1:
            raise ValueError("jobs_per_req must be positive")
        self.num_requests = num_requests
        self.jobs_per_req = jobs_per_req
        self.seed = seed
        self.universe = self._build_universe(workloads, prefetchers, accesses)

    @staticmethod
    def _build_universe(workloads: Sequence[str],
                        prefetchers: Sequence[str],
                        accesses: int) -> List[Dict[str, Any]]:
        from repro.runner.job import SimJob
        from repro.sim.config import SystemConfig
        universe = []
        for prefetcher in prefetchers:
            config = SystemConfig.baseline(prefetcher)
            for workload in workloads:
                universe.append(SimJob(config=config, workload=workload,
                                       num_accesses=accesses).to_dict())
        return universe

    def reqs(self) -> Iterator[Req]:
        rng = random.Random(self.seed)
        for index in range(self.num_requests):
            jobs = [rng.choice(self.universe)
                    for _ in range(self.jobs_per_req)]
            yield Req(index=index, jobs=[dict(job) for job in jobs])


class TraceReplayReqGenEngine(ReqGenEngine):
    """Replays a request trace recorded with :func:`record_trace`.

    The trace is JSONL — one ``{"jobs": [...]}`` envelope per line — so
    a captured production mix replays byte-for-byte as a benchmark.
    """

    def __init__(self, path: Any) -> None:
        self.path = path

    def reqs(self) -> Iterator[Req]:
        with open(self.path, "r", encoding="utf-8") as handle:
            index = 0
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                doc = json.loads(line)
                yield Req(index=index, jobs=list(doc["jobs"]))
                index += 1


def record_trace(reqs: Iterable[Req], path: Any) -> int:
    """Write requests as a JSONL replay trace; returns the line count."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for req in reqs:
            handle.write(json.dumps({"jobs": req.jobs}, sort_keys=True)
                         + "\n")
            count += 1
    return count


@dataclass
class DriverWorkload:
    """An engine bound to a client pool and an arrival model."""

    engine: ReqGenEngine
    clients: int = 2
    mode: str = "closed"
    rate: Optional[float] = None  # requests/second, open loop only

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ValueError("clients must be positive")
        if self.mode not in ("closed", "open"):
            raise ValueError(f"unknown driver mode {self.mode!r}; "
                             f"expected 'closed' or 'open'")
        if self.mode == "open" and (self.rate is None or self.rate <= 0):
            raise ValueError("open-loop workloads need a positive rate")


@dataclass
class DriverStats:
    """What one driver run measured, client side and server side."""

    mode: str
    clients: int
    requests: int
    ok: int
    failed: int
    unique_keys: int
    elapsed_s: float
    throughput_rps: float
    latency_mean_s: float
    latency_p50_s: float
    latency_p90_s: float
    latency_p99_s: float
    latency_max_s: float
    server: Dict[str, Any] = field(default_factory=dict)
    #: Open loop only: p90 of how late requests were sent (None closed).
    generator_late_p90_s: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "clients": self.clients,
            "requests": self.requests,
            "ok": self.ok,
            "failed": self.failed,
            "unique_keys": self.unique_keys,
            "elapsed_s": round(self.elapsed_s, 6),
            "throughput_rps": round(self.throughput_rps, 3),
            "latency_s": {
                "mean": round(self.latency_mean_s, 6),
                "p50": round(self.latency_p50_s, 6),
                "p90": round(self.latency_p90_s, 6),
                "p99": round(self.latency_p99_s, 6),
                "max": round(self.latency_max_s, 6),
            },
            "server": self.server,
            "generator_late_p90_s": (
                None if self.generator_late_p90_s is None
                else round(self.generator_late_p90_s, 6)),
        }


class LoadDriver:
    """Drives one service with a :class:`DriverWorkload` and measures it."""

    def __init__(self, base_url: str, workload: DriverWorkload,
                 request_timeout: float = 300.0) -> None:
        self.base_url = base_url
        self.workload = workload
        self.request_timeout = request_timeout

    def run(self) -> DriverStats:
        """Execute the workload and return its statistics.

        Per-request latency runs to all-terminal from the send (closed
        loop) or from the scheduled due time (open loop); server
        counters are sampled before and after, so the reported deltas
        isolate this run's traffic.
        """
        reqs = list(self.workload.engine.reqs())
        before = ServiceClient(self.base_url,
                               timeout=self.request_timeout).stats()
        cursor_lock = threading.Lock()
        cursor = [0]
        started = time.monotonic()
        schedule: Optional[List[float]] = None
        if self.workload.mode == "open":
            schedule = [index / self.workload.rate
                        for index in range(len(reqs))]

        def client_loop() -> None:
            client = ServiceClient(self.base_url,
                                   timeout=self.request_timeout)
            while True:
                with cursor_lock:
                    index = cursor[0]
                    if index >= len(reqs):
                        return
                    cursor[0] = index + 1
                req = reqs[index]
                if schedule is None:
                    self._fire(client, req, time.monotonic())
                    continue
                due = started + schedule[index]
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                req.late_s = max(0.0, time.monotonic() - due)
                self._fire(client, req, due)

        threads = [threading.Thread(target=client_loop, daemon=True,
                                    name=f"driver-client-{i}")
                   for i in range(self.workload.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.monotonic() - started
        after = ServiceClient(self.base_url,
                              timeout=self.request_timeout).stats()
        return self._stats(reqs, elapsed, before, after)

    def _fire(self, client: ServiceClient, req: Req,
              since: float) -> None:
        """Submit ``req``, wait for it, and time it from ``since``."""
        try:
            submission = client.submit(jobs=req.jobs)
            req.ticket = submission.ticket
            req.keys = submission.keys
            doc = client.wait(submission, timeout=self.request_timeout)
            req.ok = all(job["status"] == "done" for job in doc["jobs"])
            if not req.ok:
                req.error = "; ".join(
                    f"{job['key'][:12]}: {job['status']}"
                    for job in doc["jobs"] if job["status"] != "done")
        except (ServiceError, TimeoutError) as exc:
            req.ok = False
            req.error = str(exc)
        req.latency_s = time.monotonic() - since

    def _stats(self, reqs: List[Req], elapsed: float,
               before: Dict[str, Any],
               after: Dict[str, Any]) -> DriverStats:
        latencies = [req.latency_s for req in reqs
                     if req.latency_s is not None]
        ok = sum(1 for req in reqs if req.ok)
        unique = {key for req in reqs for key in req.keys}
        server = {
            "executed_delta": after["executed"] - before["executed"],
            "attached_delta": after["attached"] - before["attached"],
            "cache_hits_delta": after["cache_hits"] - before["cache_hits"],
            "jobs": after["jobs"],
        }
        lateness = [req.late_s for req in reqs if req.late_s is not None]
        if not latencies:
            latencies = [0.0]
        return DriverStats(
            mode=self.workload.mode,
            clients=self.workload.clients,
            requests=len(reqs),
            ok=ok,
            failed=len(reqs) - ok,
            unique_keys=len(unique),
            elapsed_s=elapsed,
            throughput_rps=len(reqs) / elapsed if elapsed > 0 else 0.0,
            latency_mean_s=sum(latencies) / len(latencies),
            latency_p50_s=percentile(latencies, 50),
            latency_p90_s=percentile(latencies, 90),
            latency_p99_s=percentile(latencies, 99),
            latency_max_s=max(latencies),
            server=server,
            generator_late_p90_s=(percentile(lateness, 90)
                                  if lateness else None),
        )


# ---------------------------------------------------------------------- #
# CLI (python -m repro.service.driver)
# ---------------------------------------------------------------------- #

def build_parser() -> argparse.ArgumentParser:
    """The load-driver argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.driver",
        description="Benchmark a repro simulation service with synthetic "
                    "or replayed request traffic")
    parser.add_argument("--server", required=True,
                        help="service base URL, e.g. http://127.0.0.1:8377")
    parser.add_argument("--clients", type=int, default=2,
                        help="concurrent driver clients (default: 2)")
    parser.add_argument("--requests", type=int, default=16,
                        help="total requests across all clients "
                             "(default: 16)")
    parser.add_argument("--mode", choices=["closed", "open"],
                        default="closed",
                        help="closed: next request after completion; "
                             "open: fixed arrival rate (default: closed)")
    parser.add_argument("--rate", type=float, default=None,
                        help="open-loop arrival rate, requests/second")
    parser.add_argument("--workloads", default=",".join(_DEFAULT_WORKLOADS),
                        help="comma-separated workload names of the "
                             "synthetic universe")
    parser.add_argument("--prefetchers",
                        default=",".join(_DEFAULT_PREFETCHERS),
                        help="comma-separated prefetcher names of the "
                             "synthetic universe")
    parser.add_argument("--accesses", type=int, default=2000,
                        help="trace length per job (default: 2000)")
    parser.add_argument("--jobs-per-req", type=int, default=2,
                        help="jobs per submission (default: 2)")
    parser.add_argument("--seed", type=int, default=0,
                        help="synthetic engine seed (default: 0)")
    parser.add_argument("--replay", default=None, metavar="FILE",
                        help="replay this recorded JSONL request trace "
                             "instead of generating synthetic traffic")
    parser.add_argument("--record", default=None, metavar="FILE",
                        help="record the generated requests to this JSONL "
                             "file before driving them")
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="per-request completion budget, seconds "
                             "(default: 300)")
    parser.add_argument("--output", default="-",
                        help="stats JSON destination (default: stdout)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Drive a service and print the stats document."""
    args = build_parser().parse_args(argv)
    if args.replay is not None:
        engine: ReqGenEngine = TraceReplayReqGenEngine(args.replay)
    else:
        engine = SyntheticReqGenEngine(
            num_requests=args.requests,
            workloads=[w for w in args.workloads.split(",") if w],
            prefetchers=[p for p in args.prefetchers.split(",") if p],
            accesses=args.accesses,
            jobs_per_req=args.jobs_per_req,
            seed=args.seed)
    if args.record is not None:
        count = record_trace(engine.reqs(), args.record)
        print(f"recorded {count} request(s) to {args.record}",
              file=sys.stderr)
    workload = DriverWorkload(engine=engine, clients=args.clients,
                              mode=args.mode, rate=args.rate)
    driver = LoadDriver(args.server, workload,
                        request_timeout=args.timeout)
    try:
        stats = driver.run()
    except ServiceError as exc:
        print(f"driver: error: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(stats.to_dict(), indent=2, sort_keys=True) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    print(f"{stats.requests} request(s), {stats.ok} ok, "
          f"p50 {stats.latency_p50_s * 1000:.1f}ms, "
          f"p99 {stats.latency_p99_s * 1000:.1f}ms, "
          f"{stats.server.get('executed_delta', '?')} executed / "
          f"{stats.unique_keys} unique job(s)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
