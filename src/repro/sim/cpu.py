"""A single-server CPU resource with per-process time accounting.

The paper's testbed is a 33 MHz i486; every benchmark result has a CPU
component (the dark regions in figures 3/4, the CPU-time columns of tables 1
and 2, and the compile-dominated Andrew phase).  We model the CPU as a FIFO
single server that drives its own queue: a process *computes* in
quantum-bounded slices of the duration.

A charge that cannot run in place is one :class:`CPUSlice` event, which the
charging process waits on.  An idle CPU puts the slice's completion straight
on the engine's heap at ``now + slice``; a busy one parks the event, and the
completion of the slice in service starts the oldest parked one.  When a
slice completes, its event starts the oldest waiter, charges the slice, and
then either re-queues itself for the next slice behind the waiters (a long
computation interleaves with other processes at every quantum boundary
rather than monopolising the CPU) or, after the last slice, resumes its
process: one resume per charge, however many quanta it spans.

Each slice counts as one engine event, but a charge on an idle CPU whose
last slice ends before anything else on the heap (the engine's in-place
rule, :meth:`repro.sim.engine.Engine._advance_in_place`) builds no event
and costs no resume: nobody could run before the caller wakes, so the
caller runs on with the clock at the charge's end.

Durations are produced by :class:`repro.costs.CostModel`; this module only
executes them, and refuses a negative or non-finite one -- and a quantum
that is not finite and positive, which would slice a charge forever.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Iterable

from repro.sim.engine import Engine
from repro.sim.events import Event

_INF = float("inf")


class CPU:
    """One processor shared by all simulated processes.

    ``quantum`` bounds how long one process may hold the CPU per grab;
    long computations (e.g. the Andrew compile phase) are sliced so that
    other runnable processes make progress, approximating a time-sharing
    scheduler without implementing preemption.
    """

    def __init__(self, engine: Engine, quantum: float = 0.005) -> None:
        if not 0.0 < quantum < _INF:
            raise ValueError(
                f"quantum must be finite and positive: {quantum}")
        self.engine = engine
        self.quantum = quantum
        #: total busy seconds, for utilisation reporting
        self.busy_time = 0.0
        self._busy = False
        #: slices requested while busy, oldest first
        self._waiters: deque[CPUSlice] = deque()

    def compute(self, seconds: float) -> Iterable[Event]:
        """Consume *seconds* of CPU, charged to the calling process.

        Used with ``yield from``: returns ``()`` when the charge is free or
        runs in place, else ``(CPUSlice,)`` to suspend on::

            yield from machine.cpu.compute(costs.syscall)
        """
        if not 0.0 <= seconds < _INF:
            raise ValueError(
                f"compute time must be finite and non-negative: {seconds}")
        if seconds == 0.0:
            return ()
        if not self._busy:
            engine = self.engine
            quantum = self.quantum
            if seconds <= quantum:
                if engine._advance_in_place(engine.now + seconds):
                    self.busy_time += seconds
                    process = engine.current_process
                    if process is not None:
                        process.cpu_time += seconds
                    return ()
                return (CPUSlice(self, seconds),)
            # the end of the last slice, added slice by slice exactly as
            # the heap entries would be
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
        return (CPUSlice(self, seconds),)


class CPUSlice(Event):
    """One queued charge: fires once per quantum-bounded slice.

    The event is on the engine's heap while its slice is in service and in
    ``CPU._waiters`` while it waits for the CPU.  Its only callback is the
    charging process's resume, run after the last slice.
    """

    __slots__ = ("cpu", "process", "remaining", "slice_len")

    def __init__(self, cpu: CPU, seconds: float) -> None:
        # Event.__init__'s slots set here: one constructor frame per charge
        engine = cpu.engine
        self.engine = engine
        self.callbacks = []
        self._value = None
        self._exc = None
        self._triggered = False
        self._processed = False
        self.cpu = cpu
        self.process = engine.current_process
        self.remaining = seconds
        quantum = cpu.quantum
        self.slice_len = quantum if quantum < seconds else seconds
        if cpu._busy:
            cpu._waiters.append(self)
        else:
            cpu._busy = True
            self._start()

    def _start(self) -> None:
        """Put this slice in service: it fires ``slice_len`` from now."""
        self._triggered = True
        engine = self.engine
        engine._seq = seq = engine._seq + 1
        heappush(engine._heap, (engine.now + self.slice_len, seq, self))

    def _process(self) -> None:
        """A slice completed.  Called by the engine only."""
        cpu = self.cpu
        waiters = cpu._waiters
        # the next slice is in service before this charge goes on
        if waiters:
            waiters.popleft()._start()
        else:
            cpu._busy = False
        slice_len = self.slice_len
        remaining = self.remaining - slice_len
        cpu.busy_time += slice_len
        process = self.process
        if process is not None:
            process.cpu_time += slice_len
        if remaining > 0.0:
            # re-queue behind whoever is waiting now
            self.remaining = remaining
            quantum = cpu.quantum
            self.slice_len = quantum if quantum < remaining else remaining
            if cpu._busy:
                self._triggered = False
                waiters.append(self)
            else:
                cpu._busy = True
                self._start()
            return
        self._processed = True
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)
