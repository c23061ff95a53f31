"""Deterministic fault injection for the execution layer.

The golden-equivalence suite proves the *success* paths bit-identical;
this module is its analogue for the *failure* paths.  A
:class:`FaultPlan` maps job-key prefixes (``SimJob.key()`` content
hashes, so plans survive pickling, process boundaries and re-runs) to
:class:`FaultSpec` behaviours:

* ``raise`` — the attempt raises :class:`FaultError` (a plain worker
  exception: retriable, isolated to the one job).
* ``flaky`` — attempts below ``succeed_on`` raise; attempt
  ``succeed_on`` runs normally (proves retry-until-success).
* ``hang`` — the attempt sleeps ``hang_s`` seconds *before* simulating,
  so a configured per-job timeout fires (proves the SIGALRM deadline);
  with no timeout the job eventually completes normally.
* ``die`` — the worker process exits hard (``os._exit``) mid-job,
  optionally after writing a corrupt partial entry to ``corrupt_path``
  — the crashed-mid-write scenario the cache checksums exist for.  In a
  process pool this breaks the pool (``BrokenProcessPool``), which the
  backend must survive by replacing it.
* ``torn-write`` / ``lease-steal`` — distributed-protocol faults,
  interpreted by :mod:`repro.runner.distributed.worker` rather than
  here: a torn-write worker publishes a checksum-failing cache entry
  and reports success (the coordinator must quarantine and re-run);
  a lease-steal worker abandons its claim without executing (the lease
  must age out and be stolen).  Both are gated by ``succeed_on`` so
  recovery converges; inside a plain attempt they are no-ops.

Plans activate through the ``REPRO_FAULTS`` environment variable — an
inline JSON document or a path to one — because worker processes are
separate interpreters: the environment is the only channel that crosses
the pool boundary without touching the job spec (and therefore without
perturbing cache keys).  Production code never imports this module
except through the two hooks in :mod:`repro.runner.execute`.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Mapping, Optional

from repro.runner.job import SimJob

#: Environment variable carrying the active plan (inline JSON or a path).
FAULTS_ENV = "REPRO_FAULTS"

#: The closed set of injectable behaviours.
FAULT_KINDS = ("raise", "flaky", "hang", "die", "torn-write", "lease-steal")

#: The subset interpreted by the distributed worker loop instead of
#: :func:`apply_faults` (which treats them as no-ops).
PROTOCOL_FAULT_KINDS = ("torn-write", "lease-steal")


class FaultError(RuntimeError):
    """The exception an injected ``raise``/``flaky`` fault throws."""


@dataclass(frozen=True)
class FaultSpec:
    """One injected behaviour (see the module docstring for the kinds)."""

    kind: str
    succeed_on: int = 2
    hang_s: float = 3600.0
    corrupt_path: Optional[str] = None
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"expected one of {FAULT_KINDS}")
        if self.succeed_on < 1:
            raise ValueError("succeed_on is a 1-based attempt number")
        if self.hang_s < 0:
            raise ValueError("hang_s must be non-negative")

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind}
        if self.kind == "flaky" or self.kind in PROTOCOL_FAULT_KINDS:
            out["succeed_on"] = self.succeed_on
        if self.kind == "hang":
            out["hang_s"] = self.hang_s
        if self.kind == "die" and self.corrupt_path is not None:
            out["corrupt_path"] = self.corrupt_path
        if self.message != "injected fault":
            out["message"] = self.message
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSpec":
        unknown = sorted(set(data) - {"kind", "succeed_on", "hang_s",
                                      "corrupt_path", "message"})
        if unknown:
            raise ValueError(f"unknown fault-spec key(s) {unknown}")
        return cls(**dict(data))


@dataclass(frozen=True)
class FaultPlan:
    """Job-key-prefix -> :class:`FaultSpec`, serialisable to JSON.

    Keys are prefixes of :meth:`SimJob.key` hex digests, so a test can
    target one exact sweep cell (full 64-char key) or, with a short
    prefix, a pseudo-random-but-deterministic subset of a large matrix.
    """

    faults: Mapping[str, FaultSpec] = field(default_factory=dict)

    def match(self, key: str) -> Optional[FaultSpec]:
        """The spec injected for job ``key``, or None (longest prefix wins)."""
        best: Optional[str] = None
        for prefix in self.faults:
            if key.startswith(prefix) and (best is None or len(prefix) > len(best)):
                best = prefix
        return self.faults[best] if best is not None else None

    def to_dict(self) -> Dict[str, Any]:
        return {"version": 1,
                "faults": {prefix: spec.to_dict()
                           for prefix, spec in sorted(self.faults.items())}}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        if data.get("version") != 1:
            raise ValueError(f"unsupported fault-plan version "
                             f"{data.get('version')!r} (this build reads 1)")
        faults = data.get("faults", {})
        if not isinstance(faults, Mapping):
            raise ValueError("fault-plan 'faults' must be a mapping")
        return cls(faults={str(prefix): FaultSpec.from_dict(spec)
                           for prefix, spec in faults.items()})

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @contextmanager
    def activated(self) -> Iterator[None]:
        """Set ``REPRO_FAULTS`` (inline JSON) for the duration of a block.

        Worker processes inherit the parent environment at pool
        creation, so activate the plan *before* running the sweep.
        """
        previous = os.environ.get(FAULTS_ENV)
        os.environ[FAULTS_ENV] = self.to_json()
        try:
            yield
        finally:
            if previous is None:
                os.environ.pop(FAULTS_ENV, None)
            else:
                os.environ[FAULTS_ENV] = previous


#: Parse cache: the raw env value seen last, and the plan it parsed to.
_parsed: Optional[Any] = None


def active_plan() -> Optional[FaultPlan]:
    """The plan named by ``REPRO_FAULTS``, or None when unset.

    Parsed once per distinct env value per process (workers each parse
    their inherited copy once).  The value is inline JSON when it starts
    with ``{``, otherwise a path to a JSON file.
    """
    global _parsed
    raw = os.environ.get(FAULTS_ENV)
    if not raw:
        return None
    if _parsed is not None and _parsed[0] == raw:
        return _parsed[1]
    if raw.lstrip().startswith("{"):
        plan = FaultPlan.from_json(raw)
    else:
        with open(raw, "r", encoding="utf-8") as handle:
            plan = FaultPlan.from_json(handle.read())
    _parsed = (raw, plan)
    return plan


def apply_faults(job: SimJob, attempt: int) -> None:
    """Inject the active plan's behaviour for ``job``, if any.

    Called at the top of every job attempt (worker side).  A ``hang``
    returns after sleeping so the job then runs normally; ``raise`` and
    under-budget ``flaky`` raise :class:`FaultError`; ``die`` never
    returns.
    """
    plan = active_plan()
    if plan is None:
        return
    spec = plan.match(job.key())
    if spec is None:
        return
    if spec.kind in PROTOCOL_FAULT_KINDS:
        # Distributed-protocol faults act between the queue and the
        # cache, not inside an attempt; the worker loop interprets
        # them before it ever calls run_job_attempt.
        return
    if spec.kind == "raise":
        raise FaultError(spec.message)
    if spec.kind == "flaky":
        if attempt < spec.succeed_on:
            raise FaultError(f"{spec.message} (attempt {attempt} of a "
                             f"succeed-on-{spec.succeed_on} flake)")
        return
    if spec.kind == "hang":
        time.sleep(spec.hang_s)
        return
    # kind == "die": simulate a crash mid-write, then kill the process
    # without cleanup (os._exit skips atexit/finally — like a kill -9
    # or the OOM killer, it leaves whatever partial state exists).
    if spec.corrupt_path is not None:
        try:
            os.makedirs(os.path.dirname(spec.corrupt_path) or ".",
                        exist_ok=True)
            with open(spec.corrupt_path, "wb") as handle:
                handle.write(b"partial write interrupted by worker death")
                handle.flush()
        except OSError:
            pass
    sys.stderr.flush()
    os._exit(17)
