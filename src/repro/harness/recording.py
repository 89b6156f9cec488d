"""The recording runner: one instrumented execution of a victim workload.

Crash exploration needs the *timeline* of a run before it can enumerate
crash points: when did each write transfer start, how many sectors did it
carry, when did it complete.  :func:`record_run` executes a workload once on
a machine with a passive observer on the drive (it records every
:class:`~repro.disk.drive.InFlightWrite` as its media transfer begins) and
then lets the system quiesce naturally -- no explicit ``sync()`` is
injected, because a re-simulation of the same workload (the test suite's
replay oracle) must follow the *identical* event timeline and a
recording-only sync would fork it.  Quiescence is reached through the
ordinary syncer-daemon sweeps, exactly as a real machine left idle would
settle.

With ``capture_media=True`` the run additionally snapshots the pre-workload
base image and attaches a :class:`~repro.integrity.medialog.MediaLog` to the
drive's ``on_write_commit`` observer -- and, for a scheme with off-media
survivors (NVRAM), to its ``on_survivor`` observer -- so crash images can
later be *synthesized* (base + committed sectors + surviving mirror) with
no further simulation; see ``docs/crash-exploration.md``.  Capture is
passive: it changes neither the event timeline nor a single simulated
timestamp.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.integrity.medialog import MediaLog
from repro.machine import Machine
from repro.sim.engine import SimulationError


@dataclass(frozen=True)
class WriteWindow:
    """One media write transfer: the crash-point enumeration unit.

    The transfer lays sectors down in LBN order, one per ``sector_period``
    (each protected by its own ECC), so a crash inside the window
    ``[transfer_start, transfer_start + nsectors * sector_period]`` leaves a
    sector prefix on the platters.  Windows cover *dispatched batches*: the
    driver may have concatenated several logical requests into one.
    """

    lbn: int
    nsectors: int
    transfer_start: float
    sector_period: float

    @property
    def complete_time(self) -> float:
        return self.transfer_start + self.nsectors * self.sector_period


@dataclass
class RecordedRun:
    """The recorded timeline plus run-level metrics."""

    windows: list[WriteWindow] = field(default_factory=list)
    #: simulated instant the workload generator finished
    workload_done: float = 0.0
    #: simulated instant the machine quiesced (driver idle, cache clean,
    #: no deferred scheme work) -- the end of the explorable timeline
    quiesce_time: float = 0.0
    #: driver requests issued over the whole run (write tail included)
    requests_issued: int = 0
    #: engine events processed (determinism fingerprint)
    events_processed: int = 0
    #: the pre-workload disk image (``capture_media=True`` runs only)
    base_image = None
    #: the media write-log (``capture_media=True`` runs only)
    media_log: Optional[MediaLog] = None

    @property
    def sectors_written(self) -> int:
        return sum(w.nsectors for w in self.windows)


def quiescent(machine: Machine) -> bool:
    """Nothing left that could still reach the disk."""
    return (machine.driver.idle
            and machine.disk.in_flight is None
            and not machine.cache.dirty_buffers()
            and machine.scheme.pending_work() == 0)


def record_run(machine: Machine, workload: Generator,
               name: str = "victim",
               max_events: Optional[int] = 20_000_000,
               capture_media: bool = False,
               monitor=None) -> RecordedRun:
    """Run *workload* to completion, then to quiescence, recording writes.

    ``capture_media=True`` additionally snapshots the pre-workload image and
    logs every sector that reaches the platters (payload, LBN, per-sector
    commit timing, torn/faulted outcomes) into ``recorded.media_log`` so
    crash images can be synthesized without replay.  A scheme that keeps
    battery-backed state exposes an ``on_survivor`` slot (duck-typed,
    like ``apply_to_image`` in ``crash_image``); its stores and drops are
    logged too, stamped with the simulated instant, starting from the
    empty mirror of the freshly formatted machine recordings begin on.

    *monitor* (an :class:`~repro.integrity.monitor.OrderingMonitor`)
    additionally watches the same commit stream for ordering-rule
    violations.  The monitor chains behind the media log (it is attached
    last, so the log's observer still fires first) and, like the log, is
    purely passive.
    """
    recorded = RecordedRun()
    machine.disk.on_transfer_start = \
        lambda ifw: recorded.windows.append(WriteWindow(
            lbn=ifw.lbn,
            nsectors=len(ifw.data) // machine.disk.geometry.sector_size,
            transfer_start=ifw.transfer_start,
            sector_period=ifw.sector_period))
    if capture_media:
        recorded.base_image = machine.disk.storage.snapshot()
        recorded.media_log = MediaLog(machine.disk.geometry.sector_size)
        recorded.media_log.attach(machine.disk)
        if hasattr(machine.scheme, "on_survivor"):
            survivors = recorded.media_log.survivors
            machine.scheme.on_survivor = lambda lbn, data: \
                survivors.append((machine.engine.now, lbn, data))
    try:
        if monitor is not None:
            # a refused attach must still unhook everything installed above
            monitor.attach(machine.disk)
        engine = machine.engine
        process = engine.process(workload, name=name)
        budget = max_events
        done_seen = False
        while not (process.triggered and quiescent(machine)):
            if engine.pending_events == 0:
                raise SimulationError(
                    "event heap drained before the machine quiesced")
            engine.step()
            if budget is not None:
                budget -= 1
                if budget <= 0:
                    raise SimulationError(
                        f"recording exceeded max_events={max_events}")
            if process.triggered and not done_seen:
                if not process.ok:
                    raise process.value
                done_seen = True
                recorded.workload_done = engine.now
        recorded.quiesce_time = engine.now
        recorded.requests_issued = machine.driver.requests_issued
        recorded.events_processed = engine.events_processed
    finally:
        machine.disk.on_transfer_start = None
        if monitor is not None:
            monitor.detach(machine.disk)  # unchains back to the media log
        if capture_media:
            recorded.media_log.detach(machine.disk)
            if hasattr(machine.scheme, "on_survivor"):
                machine.scheme.on_survivor = None
    return recorded
