"""The host's speed, sampled beside the program with a fixed kernel.

The benchmark runs on a few cores of a shared host whose speed changes
on its own: the same pure-Python work takes up to 90% longer for
seconds at a time, each core on its own, and how long a run spends in
each state moved a run's median by more than any bound could allow.
So the benchmark times ``kernel`` — fixed, L1-resident,
interpreter-bound work that touches nothing of the program — beside
the ops, outside their timed regions, and reports each op's latency at
the reference speed::

    scaled latency = raw latency * (REFERENCE_MS / kernel time) ** exponent

Per workload, ``config.json`` names the probe (``speed_probe``: the
benchmark's own thread, ``self``, for work done in that thread, or the
mean over every CPU, ``each-cpu``, for work done in other processes)
and ``speed_exponent``, how strongly the workload's op time follows the
kernel's.  The exponents were measured by regressing log op latency on
log kernel time over 1-4 s windows of many runs (NOTES.md, "Host-speed
scaling"); the host's slow state slows different code by different
shares, so each is below 1.

A change to the program moves its raw latency and leaves the kernel
alone, so it moves the scaled latency by the same share; a change of
the host's speed moves both and largely cancels.  Work the program
left running between ops (a background thread in the benchmark's
process, a busy server) would slow the kernel too and hide part of its
cost, so every run prints its raw figures beside the scaled ones.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Callable, Dict, List, Optional

#: Kernel time (ms) that scaled figures refer to: about what ``kernel``
#: takes on a 2-core x86-64 VM in its fast state.
REFERENCE_MS = 2.2


class _Slot:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def _touch(table: dict, slot: _Slot, i: int) -> int:
    index = (i * 2654435761) & 1023
    hit = table.get(index)
    if hit is None:
        table[index] = slot
        return 0
    hit.value += slot.key
    return hit.value & 7


def kernel(n: int = 4000) -> int:
    """Fixed interpreter-bound work: calls, attributes, dicts, a sort."""
    table: dict = {}
    kept: List[_Slot] = []
    total = 0
    for i in range(n):
        slot = _Slot(i, i & 15)
        total += _touch(table, slot, i)
        if i & 31 == 0:
            kept.append(slot)
    kept.sort(key=lambda s: s.value)
    return total + len(kept)


def sample() -> float:
    """One timed run of ``kernel``, in ms."""
    started = perf_counter()
    kernel()
    return 1000.0 * (perf_counter() - started)


def sample_each_cpu() -> float:
    """The mean of one ``sample`` pinned to each CPU this thread may use.

    For work that runs in other processes, on whichever core is free.
    The affinity applies to the calling thread only and is restored
    before returning, so processes started afterwards inherit all CPUs.
    """
    if not hasattr(os, "sched_setaffinity"):
        return sample()
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(sample())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


#: ``speed_probe`` in ``config.json`` -> how a host-speed sample is taken.
PROBES: Dict[str, Callable[[], float]] = {"self": sample, "each-cpu": sample_each_cpu}


def factor(kernel_ms: Optional[float], exponent: float) -> float:
    """What a raw time is multiplied by to read at the reference speed.

    1 when no sample was taken: the time is then reported raw.
    """
    return 1.0 if kernel_ms is None else (REFERENCE_MS / kernel_ms) ** exponent
