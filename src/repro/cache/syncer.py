"""The syncer daemon (section 2) and the workitem queue (section 4.2).

UNIX SVR4 MP's syncer "awakens once each second and sweeps through a fraction
of the buffer cache, marking each dirty block encountered.  An asynchronous
write is initiated for each dirty block marked on the previous pass."  This
smears write-back over time instead of the classic bursty 30-second sync.

Soft updates reuses the same daemon for deferred work: "Any tasks that
require non-trivial processing are appended to a single workitem queue.
When the syncer daemon next awakens (within one second), it services the
workitem queue before its normal activities."
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Generator, Union

from repro.sim.engine import Engine
from repro.cache.buffer import Buffer
from repro.cache.buffercache import BufferCache

#: a workitem is a plain callable (fast) or a generator function producing a
#: subroutine the syncer runs with ``yield from`` (may block on I/O)
Workitem = Union[Callable[[], None], Callable[[], Generator]]


class SyncerDaemon:
    """Background flusher with mark-then-write sweeps and a workitem queue."""

    def __init__(self, engine: Engine, cache: BufferCache,
                 interval: float = 1.0, sweep_passes: int = 10) -> None:
        if sweep_passes < 1:
            raise ValueError("sweep_passes must be >= 1")
        self.engine = engine
        self.cache = cache
        self.interval = interval
        self.sweep_passes = sweep_passes
        self._workitems: deque[tuple[Workitem, bool]] = deque()
        self._marked_buffers: list[Buffer] = []
        self._pass_number = 0
        self.wakeups = 0
        self.writes_started = 0
        self.workitems_run = 0
        #: dirty buffers left after each sweep's writes, summed over sweeps
        self.sweep_dirty = 0
        self._obs = engine.obs
        self._process = engine.process(self._run(), name="syncer")

    # -- workitem queue ----------------------------------------------------
    def add_workitem(self, item: Workitem, blocking: bool = False) -> None:
        """Queue background work; serviced within one wakeup interval.

        ``blocking=True`` marks *item* as a generator function the syncer
        must drive with ``yield from`` (it may sleep on locks or disk I/O).
        """
        self._workitems.append((item, blocking))

    # -- the daemon ----------------------------------------------------------
    def _run(self) -> Generator:
        obs = self._obs
        while True:
            yield self.engine.timeout(self.interval)
            self.wakeups += 1
            if obs is None:
                yield from self._service_workitems()
                self._sweep()
            else:
                span = obs.tracer.begin("syncer.wakeup", "syncer")
                yield from self._service_workitems()
                self._sweep()
                obs.tracer.end(span)

    def _service_workitems(self) -> Generator:
        # Service what is queued now; items queued by items run next wakeup,
        # bounding each wakeup's work (and matching "before its normal
        # activities" without livelocking the sweep).
        for _ in range(len(self._workitems)):
            item, blocking = self._workitems.popleft()
            self.workitems_run += 1
            if blocking:
                yield from item()
            else:
                item()

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
