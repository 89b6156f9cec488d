"""The recording runner: one instrumented execution of a victim workload.

Crash exploration needs the *timeline* of a run before it can enumerate
crash points: when did each write transfer start, how many sectors did it
carry, when did it end and what did it leave on the platters.
``with recording(machine) as recorded:`` snapshots the base image and puts
a :class:`~repro.integrity.medialog.MediaLog` among the drive's
``write_observers`` (it keeps every :class:`~repro.disk.drive.InFlightWrite`
the drive hands out as its media operation ends) for the duration of the
block.  :func:`record_run` runs a workload once inside it and then lets
the system quiesce naturally -- no explicit ``sync()`` is injected,
because a re-simulation of the same workload (the test suite's replay
oracle) must follow the *identical* event timeline and a recording-only
sync would fork it.  Quiescence is reached through the ordinary
syncer-daemon sweeps, exactly as a real machine left idle would settle.

That one list of records is what crash points are enumerated from, what
crash images are later *synthesized* from (base + committed sectors + the
surviving mirror of a scheme with off-media survivors, logged through its
``on_survivor`` observer) with no further simulation, and what the
ordering monitor (:func:`repro.integrity.monitor.monitor_violations`)
walks; see ``docs/crash-exploration.md``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Generator, Iterator, Optional

from repro.disk.drive import InFlightWrite
from repro.disk.storage import SectorStore
from repro.integrity.medialog import MediaLog
from repro.machine import Machine
from repro.sim.engine import SimulationError


@dataclass
class RecordedRun:
    """The recorded timeline plus run-level metrics."""

    #: the pre-workload disk image
    base_image: SectorStore
    #: every write transfer of the run (and every off-media survivor)
    media_log: MediaLog = field(default_factory=MediaLog)
    #: simulated instant the workload generator finished
    workload_done: float = 0.0
    #: simulated instant the machine quiesced (driver idle, cache clean,
    #: no deferred scheme work) -- the end of the explorable timeline
    quiesce_time: float = 0.0
    #: driver requests issued over the whole run (write tail included)
    requests_issued: int = 0
    #: engine events processed (determinism fingerprint)
    events_processed: int = 0

    @property
    def windows(self) -> list[InFlightWrite]:
        """The write transfers, each a crash-point enumeration unit: the
        media log's own entries, not a copy."""
        return self.media_log.entries


def quiescent(machine: Machine) -> bool:
    """Nothing left that could still reach the disk."""
    return (machine.driver.idle
            and machine.disk.in_flight is None
            and not machine.cache.dirty_buffers()
            and machine.scheme.pending_work() == 0)


@contextmanager
def recording(machine: Machine) -> Iterator[RecordedRun]:
    """Record every media write of *machine* while the block runs.

    The current image is snapshotted (copy-on-write, so free) as the base,
    the log's ``entries.append`` joins the drive's ``write_observers``
    (each write's record is kept by reference: payload, LBN, per-sector
    timing, torn/faulted outcome) and the scheme's ``on_survivor``
    observer logs every store and drop of its battery-backed state (only
    NVRAM has any), stamped with the simulated instant.  Both hooks come
    off however the block exits.  Recording is passive: it changes neither
    the event timeline nor a single simulated timestamp.
    """
    recorded = RecordedRun(machine.disk.storage.snapshot())
    observers = machine.disk.write_observers
    log_write = recorded.media_log.entries.append
    observers.append(log_write)
    scheme = machine.scheme
    survivors = recorded.media_log.survivors
    scheme.on_survivor = lambda lbn, data: \
        survivors.append((machine.engine.now, lbn, data))
    try:
        yield recorded
    finally:
        observers.remove(log_write)
        scheme.on_survivor = None


def record_run(machine: Machine, workload: Generator,
               name: str = "victim",
               max_events: Optional[int] = 20_000_000,
               capture_media: bool = True) -> RecordedRun:
    """Run *workload* to completion, then to quiescence, under
    :func:`recording`, so crash images can be synthesized without replay.
    The mirror's log starts from the empty mirror of the freshly
    formatted machine recordings begin on.

    The workload phase runs through the engine's dispatch loop
    (:meth:`~repro.sim.engine.Engine.run_until_finished`), so CPU charges,
    lock grants and drive holds run in place; it stops after the dispatch
    the victim finished in, which stamps ``workload_done``.  The quiesce
    tail single-steps, checking :func:`quiescent` after every event, so
    the recording ends on the first event boundary where nothing is left
    to reach the disk.  Like ``Engine.run``, *max_events* counts every
    event of the run and raises only when one more would be needed.

    *capture_media* is vestigial: both values record the same thing.  It
    stays because ``bench/workloads.py`` passes it.
    """
    with recording(machine) as recorded:
        engine = machine.engine
        victim = engine.process(workload, name=name)
        budget = (None if max_events is None
                  else engine.events_processed + max_events)
        try:
            engine.run_until_finished(victim, max_events)
        except SimulationError as exc:
            stalled = _stalled(engine, budget, max_events)
            if stalled is None:
                raise
            raise stalled from exc
        if not victim.ok:
            raise victim.value
        recorded.workload_done = engine.now
        while not quiescent(machine):
            stalled = _stalled(engine, budget, max_events)
            if stalled is not None:
                raise stalled
            engine.step()
        recorded.quiesce_time = engine.now
        recorded.requests_issued = machine.driver.requests_issued
        recorded.events_processed = engine.events_processed
    return recorded


def _stalled(engine, budget: Optional[int],
             max_events: Optional[int]) -> Optional[SimulationError]:
    """Why the recording cannot take one more event, or None."""
    if engine.pending_events == 0:
        return SimulationError(
            "event heap drained before the machine quiesced")
    if budget is not None and engine.events_processed >= budget:
        return SimulationError(
            f"recording exceeded max_events={max_events}")
    return None
