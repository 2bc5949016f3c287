"""Host-speed calibration for the benchmark's CPU-time measurements.

On a small shared VM the same code can run 1.5x slower for a few hundred
milliseconds at a time, because neighbours compete for caches and cores.
A raw CPU-time figure therefore drifts between sets of runs even when
nothing changed.  :class:`HostClock` measures a phase (set-up or the timed
window of one episode) in process CPU time and, before, after and every
``TICK_EVERY_S`` of CPU inside it, runs a fixed reference slice: a small
stdlib-only event loop shaped like the simulator's hot path (a heap of
timestamped events, generator resumes, dict updates).  The phase's CPU
time minus the slices it contains, scaled by the speed factor
``NOMINAL_SLICE_S`` over the median slice time, is the time the phase
would take on a machine of nominal speed.

Code does not slow uniformly.  The reference slice is small and
interpreter-bound, and when the host sped up or slowed down, the slice
changed about twice as much, in log terms, as the simulator did.  A phase
therefore applies the square root of the speed factor (``SENSITIVITY``).

This module imports nothing from ``repro``: the reference must not move
when the simulator changes.
"""

from __future__ import annotations

import heapq
import statistics
import time
from dataclasses import dataclass, field

#: Rounds of the reference event loop in one slice (about 5 ms here).
REFERENCE_ROUNDS = 3000
#: CPU seconds one slice takes on the nominal machine.  Calibrated seconds
#: are seconds on that machine; the value is fixed, never re-measured.
NOMINAL_SLICE_S = 0.005
#: CPU seconds of measured work between two slices inside a phase.
TICK_EVERY_S = 0.05
#: Exponent on the speed factor.  Over 6-10-run sets on a 2-core VM, 0.5
#: gave each workload's median host time a run-to-run spread of 5-11%;
#: 1.0 gave 1-23% and raw CPU time 7-29%.
SENSITIVITY = 0.5

_cpu = time.process_time


class _RefEvent:
    __slots__ = ("when", "callbacks")

    def __init__(self, when: int):
        self.when = when
        self.callbacks = []


def _ref_process(table: dict, key: int):
    while True:
        event = yield key
        slot = event.when & 511
        table[slot] = table.get(slot, 0) + 1


def reference_slice(rounds: int = REFERENCE_ROUNDS) -> int:
    """Run the fixed reference loop; returns a checksum of its work."""
    queue: list = []
    table: dict = {}
    processes = [_ref_process(table, key) for key in range(32)]
    for process in processes:
        next(process)
    now = 0
    for index in range(rounds):
        event = _RefEvent(now + (index * 7919) % 1031)
        event.callbacks.append(processes[index & 31].send)
        heapq.heappush(queue, (event.when, index, event))
        if len(queue) > 128:
            now, _, due = heapq.heappop(queue)
            for callback in due.callbacks:
                callback(due)
    return sum(table.values())


@dataclass
class PhaseTiming:
    """CPU time of one measured phase, raw and calibrated."""

    raw_s: float
    slices_s: list = field(default_factory=list)

    @property
    def speed(self) -> float:
        """Nominal slice time over this phase's median slice time (>1: fast
        host).  The median, because a slice now and then runs much faster
        or slower than the phase around it."""
        return NOMINAL_SLICE_S / statistics.median(self.slices_s)

    @property
    def calibrated_s(self) -> float:
        return self.raw_s * self.speed ** SENSITIVITY


class HostClock:
    """Stopwatch for one phase, interleaving reference slices.

    ``begin()`` and ``end()`` bracket the phase; the measured code calls
    ``tick()`` at convenient points (between operations), which runs a
    slice whenever ``TICK_EVERY_S`` of CPU passed since the last one.  The
    slices' own CPU time is excluded from the phase.  Slices never yield
    to the simulator, so they cannot change simulated behaviour.
    With ``interleave=False`` only the bracketing slices run (for a
    profiled phase, where a slice would pollute the profile).
    """

    def __init__(self, interleave: bool = True):
        self.interleave = interleave
        self._slices: list[float] = []
        self._excluded = 0.0
        self._start = 0.0
        self._next_tick = float("inf")

    def _slice(self) -> float:
        start = _cpu()
        reference_slice()
        spent = _cpu() - start
        self._slices.append(spent)
        return spent

    def begin(self) -> None:
        self._slice()
        self._start = _cpu()
        self._excluded = 0.0
        self._next_tick = (self._start + TICK_EVERY_S if self.interleave
                           else float("inf"))

    def tick(self) -> None:
        now = _cpu()
        if now >= self._next_tick:
            self._excluded += self._slice()
            self._next_tick = _cpu() + TICK_EVERY_S

    def end(self) -> PhaseTiming:
        raw = _cpu() - self._start - self._excluded
        self._next_tick = float("inf")
        self._slice()
        return PhaseTiming(raw_s=raw, slices_s=list(self._slices))
