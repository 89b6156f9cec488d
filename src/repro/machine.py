"""The machine: CPU + disk + driver + cache + syncer + file system.

:class:`Machine` assembles the whole simulated testbed the way section 2
describes the NCR 3433: one CPU, one HP C2447-class disk behind a scheduling
device driver, a buffer cache swept by a one-second syncer daemon, and a
ufs-like file system mounted with one of the five ordering schemes.

Typical use::

    machine = Machine(MachineConfig(scheme=SoftUpdatesScheme()))
    machine.format()

    def user():
        yield from machine.fs.write_file("/f", b"hello")

    machine.run(machine.spawn(user(), name="user0"))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.cache import BufferCache, SyncerDaemon
from repro.costs import CostModel
from repro.disk import Disk
from repro.driver import ChainsPolicy, DeviceDriver, FlagPolicy, FlagSemantics
from repro.faults import FaultPlan
from repro.driver.ordering import OrderingPolicy
from repro.fs import FileSystem, FSGeometry, mkfs
from repro.fs.layout import with_journal
from repro.obs import Tracer
from repro.ordering import (
    NoOrderScheme,
    OrderingScheme,
    SchedulerChainsScheme,
    SchedulerFlagScheme,
    SoftUpdatesScheme,
)
from repro.sim import CPU, Engine, Process


def default_policy_for(scheme: OrderingScheme) -> OrderingPolicy:
    """The driver policy each scheme expects (section 5's configurations)."""
    if isinstance(scheme, SchedulerChainsScheme):
        return ChainsPolicy()
    if isinstance(scheme, SchedulerFlagScheme):
        # the headline configuration: Part-NR (/CB comes from the scheme)
        return FlagPolicy(FlagSemantics.PART, read_bypass=True)
    # conventional / no order / soft updates do not use the flag
    return FlagPolicy(FlagSemantics.IGNORE)


@dataclass
class MachineConfig:
    """Knobs for one simulated testbed."""

    scheme: OrderingScheme = field(default_factory=NoOrderScheme)
    #: driver ordering policy; None = the scheme's natural choice
    policy: Optional[OrderingPolicy] = None
    fs_geometry: FSGeometry = field(default_factory=FSGeometry)
    costs: CostModel = field(default_factory=CostModel)
    cache_bytes: int = 24 * 1024 * 1024
    #: record spans into ``machine.tracer`` (off by default; a traced
    #: run is simulation-identical to an untraced one, just slower on the
    #: host)
    observe: bool = False
    #: make the disk unreliable (None = the perfect disk; a plan with all
    #: rates zero is byte-identical to None -- tests/faults proves it)
    faults: Optional[FaultPlan] = None


class Machine:
    """One fully assembled simulated system."""

    def __init__(self, config: Optional[MachineConfig] = None) -> None:
        self.config = config or MachineConfig()
        cfg = self.config
        if getattr(cfg.scheme, "wants_journal", False):
            # journaling schemes need the reserved journal area; sizing it
            # here (idempotently) means every harness surface -- runner,
            # explorer, fault sweep, ad-hoc tests -- gets it for free
            cfg.fs_geometry = with_journal(cfg.fs_geometry)
        self.engine = Engine()
        # the tracer is installed before any component is built so each
        # one can capture it (or None) exactly once
        self.tracer = self.engine.tracer = (Tracer(self.engine)
                                            if cfg.observe else None)
        self.cpu = CPU(self.engine)
        self.costs = cfg.costs
        self.disk = Disk(self.engine)
        if cfg.faults is not None:
            self.disk.faults = cfg.faults.build()
        self.policy = cfg.policy or default_policy_for(cfg.scheme)
        self.driver = DeviceDriver(self.engine, self.disk, self.policy)
        self.cache = BufferCache(self.engine, self.driver, self.cpu,
                                 self.costs,
                                 frag_size=cfg.fs_geometry.frag_size,
                                 capacity_bytes=cfg.cache_bytes,
                                 block_copy=cfg.scheme.uses_block_copy)
        self.syncer = SyncerDaemon(self.engine, self.cache)
        self.scheme = cfg.scheme
        self.fs = FileSystem(self.engine, self.cache, self.cpu, self.costs,
                             self.scheme, syncer=self.syncer)
        self.users: list[Process] = []

    # ------------------------------------------------------------------
    def format(self) -> None:
        """mkfs + mount (mounting runs instantaneously)."""
        mkfs(self.disk, self.config.fs_geometry)
        self.run_instantly(self.fs.mount(self.config.fs_geometry))

    def spawn(self, generator: Generator, name: str = "user") -> Process:
        """Start a simulated user process."""
        process = self.engine.process(generator, name=name)
        self.users.append(process)
        return process

    def run(self, *processes: Process, max_events: Optional[int] = None):
        """Advance simulated time until the given processes complete."""
        return [self.engine.run_until(process, max_events=max_events)
                for process in processes]

    def run_instantly(self, generator: Generator, name: str = "setup"):
        """Run a subroutine with a free CPU and an instantaneous disk.

        Used for image population (building source trees before a
        benchmark): the work happens, the clock does not move.
        """
        saved_scale = self.costs.scale
        self.costs.scale = 0.0
        self.disk.instant = True
        start = self.engine.now
        try:
            result = self.engine.run_until(
                self.engine.process(generator, name=name))
        finally:
            self.costs.scale = saved_scale
            self.disk.instant = False
        if self.engine.now != start:
            raise RuntimeError(
                "instant-mode work consumed simulated time "
                f"({start} -> {self.engine.now}); a daemon interleaved?")
        return result

    def populate(self, builder: Generator, cold_cache: bool = True) -> None:
        """Run *builder* instantly, then settle to a clean state.

        ``cold_cache=True`` starts the benchmark from an empty cache (the
        source trees are old data); ``False`` leaves the cache warm (the
        remove benchmark deletes a "newly copied" tree, section 2).
        """
        self.run_instantly(builder, name="populate")
        self.run_instantly(self.fs.sync(), name="populate-sync")
        if cold_cache:
            self.drop_caches()

    def adopt_image(self, image) -> None:
        """Boot this (freshly constructed) machine from an existing disk
        image -- the recovery path: crash, :func:`repro.integrity.repair`,
        then mount the repaired image on a new machine.
        """
        if self.fs.superblock is not None:
            raise RuntimeError("adopt_image() requires an unmounted machine")
        self.disk.storage.load_from(image)
        self.run_instantly(self.fs.mount(self.config.fs_geometry),
                           name="adopt-mount")

    def drop_caches(self) -> None:
        """Evict every clean buffer (cold-cache start for benchmarks)."""
        for buf in list(self.cache._buffers.values()):
            if (not buf.dirty and not buf.busy and not buf.write_outstanding
                    and buf.hold_count == 0):
                self.cache._evict(buf)
        self.disk.cache._segments.clear()

    # ------------------------------------------------------------------
    def sync_and_settle(self, max_events: Optional[int] = None) -> None:
        """Flush all dirty state (advances the clock)."""
        self.engine.run_until(
            self.engine.process(self.fs.sync(), name="sync"),
            max_events=max_events)

    @property
    def scheme_name(self) -> str:
        return self.scheme.name
