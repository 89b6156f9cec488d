"""The syncer daemon (section 2).

UNIX SVR4 MP's syncer "awakens once each second and sweeps through a fraction
of the buffer cache, marking each dirty block encountered.  An asynchronous
write is initiated for each dirty block marked on the previous pass."  This
smears write-back over time instead of the classic bursty 30-second sync.

In the paper, soft updates also hands this daemon its deferred work: "Any
tasks that require non-trivial processing are appended to a single workitem
queue.  When the syncer daemon next awakens (within one second), it services
the workitem queue before its normal activities."  Here that queue belongs
to the soft-updates manager (``SoftDepManager.schedule``), serviced by the
manager's own one-second ``softdep`` daemon.  Moving that work onto this
daemon would move soft updates' timings, so it is a model change, not a
refactor.
"""

from __future__ import annotations

from typing import Generator

from repro.sim.engine import Engine
from repro.cache.buffer import Buffer
from repro.cache.buffercache import BufferCache

#: the daemon's wakeup period, seconds: "awakens once each second"
WAKEUP_INTERVAL = 1.0


class SyncerDaemon:
    """Background flusher with mark-then-write sweeps."""

    def __init__(self, engine: Engine, cache: BufferCache,
                 sweep_passes: int = 10) -> None:
        if sweep_passes < 1:
            raise ValueError("sweep_passes must be >= 1")
        self.engine = engine
        self.cache = cache
        self.sweep_passes = sweep_passes
        self._marked_buffers: list[Buffer] = []
        self._pass_number = 0
        self.wakeups = 0
        self.writes_started = 0
        #: always 0: the paper's workitem queue is the soft-updates
        #: manager's (module docstring); kept for the benchmark's report
        self.workitems_run = 0
        #: dirty buffers left after each sweep's writes, summed over sweeps
        self.sweep_dirty = 0
        self._tracer = engine.tracer
        engine.process(self._run(), name="syncer")  # no handle: see driver

    # -- the daemon ----------------------------------------------------------
    def _run(self) -> Generator:
        tracer = self._tracer
        while True:
            yield self.engine.timeout(WAKEUP_INTERVAL)
            self.wakeups += 1
            if tracer is None:
                self._sweep()
            else:
                span = tracer.begin("syncer.wakeup", "syncer")
                self._sweep()
                tracer.end(span)

    def _sweep(self) -> None:
        # write out blocks marked on a previous pass (retry busy ones later)
        retry: list[Buffer] = []
        for buf in self._marked_buffers:
            if not (buf.marked and buf.dirty):
                continue  # flushed or invalidated since marking
            if self.cache.start_flush(buf) is not None:
                self.writes_started += 1
            else:
                retry.append(buf)
        self._marked_buffers = retry
        dirty = self.cache.dirty_buffers()
        self.sweep_dirty += len(dirty)
        # mark the dirty blocks in this pass's region; flushed next wakeup
        region = self._pass_number % self.sweep_passes
        self._pass_number += 1
        for buf in dirty:
            if buf.daddr % self.sweep_passes == region and not buf.marked:
                buf.marked = True
                self._marked_buffers.append(buf)
