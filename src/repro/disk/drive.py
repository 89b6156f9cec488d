"""The drive: one-request-at-a-time mechanical service.

Command queueing at the disk is deliberately *not* modelled ("Command
queueing at the disk is not utilized", section 2): the device driver owns all
scheduling and hands the drive one (possibly concatenated) request at a time.

:meth:`Disk.service` is a simulated-process subroutine: the device driver
calls it with ``yield from`` and regains control when the media operation is
done.  Writes become persistent in the :class:`SectorStore` at transfer
completion; a crash mid-transfer applies the sector prefix that had already
passed under the head (see ``in_flight`` and ``repro.integrity.crash``).

An injected fault is one outcome of that same media operation, not a
second path; the drawn :class:`~repro.faults.Fault` is left on
``disk.sense`` for the driver's recovery policy.

One :class:`InFlightWrite` describes one write transfer, and it is the only
description: it sits on ``disk.in_flight`` while the transfer runs, is
stamped with ``end`` and ``durable`` when the media operation ends, and is
then handed to every entry of ``disk.write_observers`` -- the media log
(:mod:`repro.integrity.medialog`) keeps the object itself, and the crash
explorer and the ordering monitor read it from there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, Optional

from repro.faults import Fault, FaultInjector, FaultKind
from repro.sim.engine import Engine
from repro.disk.cache import PrefetchCache
from repro.disk.geometry import DiskGeometry
from repro.disk.mechanics import DiskParameters
from repro.disk.storage import SectorStore


@dataclass
class InFlightWrite:
    """One write transfer on the media: in flight, then the log's entry.

    Sectors land in LBN order, one per ``sector_period``, each protected by
    its own ECC (paper, footnote 1), so a power failure inside
    ``[transfer_start, complete_time]`` leaves a sector prefix on the
    platters.  A transfer covers a *dispatched batch*: the driver may have
    concatenated several logical requests into one.

    ``end`` and ``durable`` are stamped by the drive when the media
    operation ends.  ``end`` is that instant (``engine.now``), *not* the
    nominal ``complete_time``: a torn write's transfer stops at the failing
    sector, and crash-image synthesis must retire the write at exactly the
    instant a re-simulation does.  ``durable`` is the sector-prefix length
    that persisted: ``nsectors`` for a successful write, the torn /
    medium-error prefix for a faulted one, zero for a transient whose pass
    left nothing on the platters.
    """

    lbn: int
    data: bytes
    nsectors: int
    transfer_start: float
    sector_period: float
    end: Optional[float] = None
    durable: int = 0

    @property
    def complete_time(self) -> float:
        """When the last sector lands if nothing cuts the transfer short."""
        return self.transfer_start + self.nsectors * self.sector_period

    def sectors_applied_by(self, when: float) -> int:
        """How many sectors had fully reached the media by time *when*: the
        one prefix expression, asked by the live drive's crash image and by
        its synthesis from the media log, so the two agree bit for bit."""
        if when <= self.transfer_start:
            return 0
        elapsed = when - self.transfer_start
        return min(int(elapsed / self.sector_period), self.nsectors)


class ServiceTimeStats:
    """Streaming service-time aggregates with bounded memory.

    The old per-I/O ``list`` grew one float per operation forever; long
    runs carried megabytes of dead samples.  This keeps count/sum/min/max
    as scalars.  ``append``/``__len__`` match the old list surface.
    """

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def append(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def __len__(self) -> int:
        return self.count

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


@dataclass
class DiskStats:
    """Aggregate drive-side instrumentation.

    ``reads``/``writes`` count operations that *completed successfully*;
    ``reads_started``/``writes_started`` count service attempts, so an
    operation cut short by a crash or failed by an injected fault is never
    reported as done.  Faulted attempts land in ``read_faults``/
    ``write_faults``; the difference (started - completed - faulted) is the
    crash-aborted remainder, exposed as ``aborted_reads``/``aborted_writes``.
    """

    reads: int = 0
    writes: int = 0
    reads_started: int = 0
    writes_started: int = 0
    read_faults: int = 0
    write_faults: int = 0
    cache_hit_reads: int = 0
    sectors_read: int = 0
    sectors_written: int = 0
    busy_time: float = 0.0
    seek_time: float = 0.0
    rotation_time: float = 0.0
    transfer_time: float = 0.0
    service_times: ServiceTimeStats = field(default_factory=ServiceTimeStats)

    @property
    def aborted_reads(self) -> int:
        return self.reads_started - self.reads - self.read_faults

    @property
    def aborted_writes(self) -> int:
        return self.writes_started - self.writes - self.write_faults


class Disk:
    """An HP C2447-class drive attached to the simulation engine."""

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self.geometry = DiskGeometry()
        self.params = DiskParameters()
        self.storage = SectorStore(self.geometry)
        self.cache = PrefetchCache(total_sectors=self.geometry.total_sectors)
        self.stats = DiskStats()
        self._tracer = engine.tracer
        self._current_cylinder = 0
        #: set to True to make service() free (image population, not benchmarks)
        self.instant = False
        #: populated while a write transfer is on the media (crash injection)
        self.in_flight: Optional[InFlightWrite] = None
        #: called, in append order, with each write's record as its media
        #: operation *ends* (``end`` and ``durable`` stamped, ``in_flight``
        #: already cleared); observers are passive and may keep the record
        self.write_observers: list[Callable[[InFlightWrite], None]] = []
        #: attach a repro.faults.FaultInjector to make the media unreliable
        self.faults: Optional[FaultInjector] = None
        #: the sense of the last service(): the Fault the injector drew for
        #: it (SCSI-style sense data), None when it succeeded
        self.sense: Optional[Fault] = None

    # ------------------------------------------------------------------
    def service(self, lbn: int, nsectors: int, is_write: bool,
                data: Optional[bytes] = None) -> Generator:
        """Perform one media operation; returns the service time in seconds.

        For writes, *data* must be ``nsectors * sector_size`` bytes; the
        sector prefix that survives is applied to the sector store at
        transfer completion -- every sector when the write succeeds.  With
        an injector attached the fate is drawn once, before the mechanics:
        a doomed operation still seeks, rotates and transfers up to its
        failure point (a timeout costs only the controller's penalty), a
        torn or medium-error write keeps the prefix before the failing
        sector, a transient keeps nothing, and only successes reach the
        prefetch cache and the completed-operation stats.
        """
        if is_write:
            if data is None:
                raise ValueError("write without data")
            if len(data) != nsectors * self.geometry.sector_size:
                raise ValueError(
                    f"write data is {len(data)} bytes; expected "
                    f"{nsectors * self.geometry.sector_size}")
        if self.instant:
            if is_write:
                self.write_now(lbn, data)
            else:
                self.cache.insert_after_read(lbn, nsectors)
            return 0.0
        start = self.engine.now
        if is_write:
            self.stats.writes_started += 1
        else:
            self.stats.reads_started += 1
        self.sense = None

        if not is_write and self.cache.lookup(lbn, nsectors):
            # on-board cache hit: controller overhead + bus transfer only,
            # and never a media fault -- the platters are not touched
            service = (self.params.controller_overhead
                       + self.params.bus_time(self.geometry, nsectors))
            yield from self.engine.hold(service)
            self.stats.reads += 1
            self.stats.sectors_read += nsectors
            self.stats.cache_hit_reads += 1
            self._account(start, 0.0, 0.0, 0.0)
            if self._tracer is not None:
                self._tracer.record(
                    "disk.cache_hit", "disk", start, self.engine.now, "drive",
                    args={"lbn": lbn, "nsectors": nsectors})
            return self.engine.now - start

        fault = None
        if self.faults is not None:
            fault = self.sense = self.faults.draw(lbn, nsectors, is_write)
        applied = 0
        if fault is not None and fault.kind is FaultKind.TIMEOUT:
            # the controller gives up before the mechanics do anything
            seek = rotation = transfer = 0.0
            yield from self.engine.hold(self.faults.plan.timeout_penalty)
        else:
            cylinder, _head, sector = self.geometry.decompose(lbn)
            seek = self.params.seek_time(self._current_cylinder, cylinder)
            arrival = start + self.params.controller_overhead + seek
            rotation = self.params.rotational_delay(self.geometry, arrival,
                                                    sector)
            transfer = self.params.transfer_time(self.geometry, nsectors)
            if is_write:
                if fault is None:
                    applied = nsectors
                elif fault.kind is not FaultKind.TRANSIENT:
                    # torn write / medium error: the transfer stops at the
                    # failing sector, leaving a persistent prefix (a
                    # transient passes every sector under the head with
                    # the write current off)
                    applied = min(fault.sectors_applied, nsectors)
                    transfer = applied * self.params.sector_period(
                        self.geometry)
                yield from self.engine.hold(
                    self.params.controller_overhead + seek + rotation)
                self._begin_transfer(lbn, nsectors, data)
                if transfer:
                    yield from self.engine.hold(transfer)
                self.storage.write_partial(lbn, data, applied)
                self._end_transfer(applied)
                self.cache.invalidate(lbn, nsectors)
            else:
                yield from self.engine.hold(
                    self.params.controller_overhead + seek + rotation
                    + transfer)
                if fault is None:
                    self.cache.insert_after_read(lbn, nsectors)
            self._current_cylinder = self.geometry.cylinder_of(
                lbn + nsectors - 1)

        self._account(start, seek, rotation, transfer)
        if fault is None:
            if is_write:
                self.stats.writes += 1
                self.stats.sectors_written += nsectors
            else:
                self.stats.reads += 1
                self.stats.sectors_read += nsectors
            if self._tracer is not None:
                self._record_service(start, seek, rotation, transfer,
                                     lbn, nsectors, is_write)
            return self.engine.now - start

        if is_write:
            self.stats.write_faults += 1
        else:
            self.stats.read_faults += 1
        kind = fault.kind.value
        self.faults.injected += 1
        self.faults.log(self.engine.now, "inject",
                        f"{kind} {'write' if is_write else 'read'} "
                        f"lbn={lbn} nsectors={nsectors} applied={applied}")
        if self._tracer is not None:
            self._tracer.record(
                "disk.fault", "disk", start, self.engine.now, "drive",
                args={"lbn": lbn, "nsectors": nsectors, "kind": kind})
        return self.engine.now - start

    def _begin_transfer(self, lbn: int, nsectors: int, data: bytes) -> None:
        """The head is over the first sector: the write is now in flight."""
        self.in_flight = InFlightWrite(
            lbn=lbn, data=data, nsectors=nsectors,
            transfer_start=self.engine.now,
            sector_period=self.params.sector_period(self.geometry))

    def _end_transfer(self, durable: int) -> None:
        """The media operation is over: stamp the record, tell observers."""
        write = self.in_flight
        self.in_flight = None
        write.end = self.engine.now
        write.durable = durable
        for observer in self.write_observers:
            observer(write)

    def reassign_block(self, lbn: int) -> bool:
        """SCSI REASSIGN BLOCKS for *lbn*; False when spares are exhausted."""
        if self.faults is None:
            return False
        ok = self.faults.reassign(lbn)
        if ok:
            self.faults.log(self.engine.now, "remap", f"lbn={lbn}")
        return ok

    # ------------------------------------------------------------------
    def _record_service(self, start: float, seek: float, rotation: float,
                        transfer: float, lbn: int, nsectors: int,
                        is_write: bool) -> None:
        """Tracing-on path: the mechanical phase breakdown as spans.

        The drive serves one request at a time, so these intervals nest
        properly on the dedicated ``drive`` track.  Built entirely from
        timestamps already computed by :meth:`service`.
        """
        record = self._tracer.record
        end = self.engine.now
        name = "disk.write" if is_write else "disk.read"
        outer = record(name, "disk", start, end, "drive",
                       args={"lbn": lbn, "nsectors": nsectors})
        at = start + self.params.controller_overhead
        if seek:
            record("seek", "disk", at, at + seek, "drive", parent=outer.id)
        at += seek
        if rotation:
            record("rotate", "disk", at, at + rotation, "drive",
                   parent=outer.id)
        at += rotation
        if transfer:
            record("transfer", "disk", at, at + transfer, "drive",
                   parent=outer.id)

    def _account(self, start: float, seek: float, rotation: float,
                 transfer: float) -> None:
        service = self.engine.now - start
        self.stats.busy_time += service
        self.stats.seek_time += seek
        self.stats.rotation_time += rotation
        self.stats.transfer_time += transfer
        self.stats.service_times.append(service)

    def read_now(self, lbn: int, nsectors: int) -> bytes:
        """Zero-time read of persistent bytes (setup/inspection paths only)."""
        return self.storage.read(lbn, nsectors)

    def write_now(self, lbn: int, data: bytes) -> None:
        """Zero-time persistent write (setup/inspection paths only)."""
        self.storage.write(lbn, data)
        self.cache.invalidate(lbn, len(data) // self.geometry.sector_size)
