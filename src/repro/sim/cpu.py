"""A single-server CPU resource with per-process time accounting.

The paper's testbed is a 33 MHz i486; every benchmark result has a CPU
component (the dark regions in figures 3/4, the CPU-time columns of tables 1
and 2, and the compile-dominated Andrew phase).  We model the CPU as a FIFO
single server that drives its own queue: a process *computes* in
quantum-bounded slices of the duration.  An idle CPU puts the slice's
completion straight on the engine's heap at ``now + slice``; a busy one
parks it, and the completion of the slice in service starts the oldest
parked one.  A long computation re-queues behind the waiters at every
quantum boundary, so concurrent processes interleave rather than monopolise.

Each slice counts as one engine event, but a charge on an idle CPU whose
last slice ends before anything else on the heap (the engine's in-place
rule, :meth:`repro.sim.engine.Engine._advance_in_place`) builds no event
and costs no resume: nobody could run before the caller wakes, so the
caller runs on with the clock at the charge's end.  Only a charge that
another process could interleave with yields its slices.

Durations are produced by :class:`repro.harness.config.CostModel`; this module
only executes them.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Generator, Iterable

from repro.sim.engine import Engine
from repro.sim.events import Event


class CPU:
    """One processor shared by all simulated processes.

    ``quantum`` bounds how long one process may hold the CPU per grab;
    long computations (e.g. the Andrew compile phase) are sliced so that
    other runnable processes make progress, approximating a time-sharing
    scheduler without implementing preemption.
    """

    def __init__(self, engine: Engine, quantum: float = 0.005) -> None:
        self.engine = engine
        self.quantum = quantum
        #: total busy seconds, for utilisation reporting
        self.busy_time = 0.0
        #: when False, compute() consumes no simulated time (image building)
        self.enabled = True
        self._busy = False
        #: ``(completion event, slice)`` requested while busy, oldest first
        self._waiters: deque[tuple[Event, float]] = deque()

    def compute(self, seconds: float) -> Iterable[Event]:
        """Consume *seconds* of CPU, charged to the calling process.

        Used with ``yield from``::

            yield from machine.cpu.compute(costs.syscall)
        """
        if seconds < 0:
            raise ValueError(f"negative compute time: {seconds}")
        if not self.enabled or seconds == 0.0:
            return ()
        if not self._busy:
            # the end of the last slice, added slice by slice exactly as
            # the heap entries would be
            quantum = self.quantum
            engine = self.engine
            end = engine.now
            remaining = seconds
            slices = 0
            while remaining > 0.0:
                slice_len = quantum if quantum < remaining else remaining
                end += slice_len
                remaining -= slice_len
                slices += 1
            if engine._advance_in_place(end, slices):
                process = engine.current_process
                remaining = seconds
                while remaining > 0.0:
                    slice_len = quantum if quantum < remaining else remaining
                    remaining -= slice_len
                    self.busy_time += slice_len
                    if process is not None:
                        process.cpu_time += slice_len
                return ()
        return self._slices(seconds)

    def _slices(self, seconds: float) -> Generator:
        process = self.engine.current_process
        remaining = seconds
        while remaining > 0.0:
            slice_len = min(remaining, self.quantum)
            done = Event(self.engine)
            # first callback, so the next slice is in service before the
            # finished process runs on (and perhaps re-queues)
            done.callbacks.append(self._serve_next)
            if self._busy:
                self._waiters.append((done, slice_len))
            else:
                self._busy = True
                self._start(done, slice_len)
            yield done
            remaining -= slice_len
            self.busy_time += slice_len
            if process is not None:
                process.cpu_time += slice_len

    def _start(self, done: Event, slice_len: float) -> None:
        """Put a slice in service: *done* fires ``slice_len`` from now."""
        done._triggered = True
        engine = self.engine
        engine._seq = seq = engine._seq + 1
        heappush(engine._heap, (engine.now + slice_len, seq, done))

    def _serve_next(self, _done: Event) -> None:
        if self._waiters:
            self._start(*self._waiters.popleft())
        else:
            self._busy = False
