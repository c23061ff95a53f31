"""Per-layer spans for the benchmark's traced run, taken from outside the program.

The tracer wraps the public entry points of each ``repro`` layer
(class methods and module functions) with timing wrappers that live in
this file only.  Spans are aggregated in memory as name -> count, total
time and self time; a layer's self time is its span duration minus the
time covered by the spans it called.  Nothing in ``src/`` is touched:
``install`` swaps the attributes in, ``uninstall`` restores the
originals, so an untraced op runs the program's own code objects.

Wrapper cost lands in the caller's self time, which is why the traced
and untraced ops are interleaved and ``trace.overhead_ratio`` is
reported beside the layer numbers.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple


class Tracer:
    """Aggregated spans over a set of wrapped entry points."""

    def __init__(self) -> None:
        #: span name -> [count, total seconds, self seconds]
        self.spans: Dict[str, List[float]] = {}
        #: Outcome counters that observers bump (e.g. cache hits).
        self.counters: Dict[str, int] = {}
        self._local = threading.local()
        #: (owner, attribute, wrapper, original) for every wrapped target.
        self._targets: List[Tuple[Any, str, Any, Any]] = []
        self._installed = False

    # ------------------------------------------------------------------ #
    # Registration and installation
    # ------------------------------------------------------------------ #

    def add(self, owner: Any, attr: str, name: str,
            observe: Optional[Callable[[Any], None]] = None) -> None:
        """Wrap ``owner.attr`` (a class or module) as span ``name``.

        ``observe`` is called with the wrapped call's return value, for
        workloads that read state off the object a layer builds.
        """
        original = owner.__dict__[attr]
        self._targets.append((owner, attr, self._wrapper(original, name, observe),
                              original))

    def add_subclasses(self, base: type, attrs: Tuple[str, ...], name: str,
                       observe: Optional[Callable[[Any], None]] = None) -> None:
        """Wrap every class under ``base`` that defines one of ``attrs``."""
        pending, seen = [base], set()
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            for attr in attrs:
                if attr in cls.__dict__:
                    self.add(cls, attr, name, observe)

    def install(self) -> None:
        if self._installed:
            return
        for owner, attr, wrapper, _ in self._targets:
            setattr(owner, attr, wrapper)
        self._installed = True

    def uninstall(self) -> None:
        if not self._installed:
            return
        for owner, attr, _, original in self._targets:
            setattr(owner, attr, original)
        self._installed = False

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #

    def _stack(self) -> List[List[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> Optional[List[Any]]:
        stack = self._stack()
        if stack and stack[-1][0] == name:
            return None  # re-entry (e.g. a super() call): one span
        frame = [name, perf_counter(), 0.0]
        stack.append(frame)
        return frame

    def _exit(self, frame: List[Any]) -> None:
        elapsed = perf_counter() - frame[1]
        stack = self._stack()
        stack.pop()
        record = self.spans.get(frame[0])
        if record is None:
            record = self.spans[frame[0]] = [0, 0.0, 0.0]
        record[0] += 1
        record[1] += elapsed
        record[2] += elapsed - frame[2]
        if stack:
            stack[-1][2] += elapsed

    def _wrapper(self, original: Any, name: str,
                 observe: Optional[Callable[[Any], None]]) -> Any:
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = tracer._enter(name)
            if frame is None:
                return original(*args, **kwargs)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if observe is not None:
                observe(result)
            return result

        traced.__name__ = getattr(original, "__name__", name)
        traced.__doc__ = getattr(original, "__doc__", None)
        return traced

    # ------------------------------------------------------------------ #
    # Read-out
    # ------------------------------------------------------------------ #

    def count(self, name: str) -> int:
        return int(self.spans.get(name, (0, 0.0, 0.0))[0])

    def total_ms(self, name: str) -> float:
        return 1000.0 * self.spans.get(name, (0, 0.0, 0.0))[1]

    def self_ms(self, name: str) -> float:
        return 1000.0 * self.spans.get(name, (0, 0.0, 0.0))[2]

    def write(self, path: Path, extra: Dict[str, Any]) -> None:
        """Write the aggregated spans (and ``extra``) as one JSON file."""
        doc = {"spans": {name: {"count": int(count),
                                "total_ms": 1000.0 * total,
                                "self_ms": 1000.0 * self_time}
                         for name, (count, total, self_time)
                         in sorted(self.spans.items())}}
        doc.update(extra)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")


def layer_tracer(include_sim: bool = True,
                 observe_system: Optional[Callable[[Any], None]] = None) -> Tracer:
    """The tracer over every layer entry point the benchmark reports.

    Installed in every workload's traced run, so a layer a workload
    bypasses in this process reads zero calls there.  ``include_sim``
    leaves the simulator layers unwrapped (for workloads whose
    simulations run in forked pool workers, which would inherit the
    wrappers but whose spans this process cannot see).
    ``observe_system`` receives each
    :class:`~repro.sim.simulator.System` that ``build_system`` returns.
    """
    import repro.report.renderers as renderers
    import repro.sim.simulator as simulator
    from repro.dram.controller import MemoryController
    from repro.engine.scalar import ScalarEngine
    from repro.memory.hierarchy import CacheHierarchy
    from repro.offchip.base import OffChipPredictor
    from repro.prefetchers.base import Prefetcher
    from repro.report.figures import FigureSpec
    from repro.report.schema import FigureResult
    from repro.runner.backends import ProcessPoolBackend
    from repro.runner.cache import ResultCache
    from repro.runner.spec import ExperimentSpec
    from repro.service.client import ServiceClient

    tracer = Tracer()
    if include_sim:
        tracer.add(ScalarEngine, "run_span", "cpu")
        tracer.add(CacheHierarchy, "load", "memory")
        tracer.add(CacheHierarchy, "store", "memory")
        tracer.add_subclasses(Prefetcher, ("on_demand_access",), "prefetchers")
        tracer.add(MemoryController, "access", "dram")
        tracer.add_subclasses(OffChipPredictor, ("predict", "train"),
                              "offchip")
        tracer.add(simulator, "build_system", "sim.build",
                   observe=observe_system)

    def cache_outcome(result: Any) -> None:
        outcome = "cache_misses" if result is None else "cache_hits"
        tracer.counters[outcome] = tracer.counters.get(outcome, 0) + 1

    # Runner, config, experiments and report layers.
    tracer.add(ExperimentSpec, "jobs", "config.spec_expand")
    tracer.add(ProcessPoolBackend, "run_outcomes", "runner.pool")
    tracer.add_subclasses(ResultCache, ("put",), "runner.cache_put")
    tracer.add_subclasses(ResultCache, ("get",), "runner.cache_get",
                          observe=cache_outcome)
    tracer.add(FigureSpec, "collect", "experiments")
    for name in renderers.renderer_names():
        cls = type(renderers.make_renderer(name))
        tracer.add(cls, "render", f"report.render.{name}")
    tracer.add(FigureResult, "to_json", "report.render.json")
    # Service client.
    tracer.add(ServiceClient, "submit", "service.submit")
    return tracer
