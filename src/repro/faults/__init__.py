"""Deterministic, seedable disk fault injection.

The paper's argument is that metadata update ordering protects integrity
when the hardware misbehaves; this package supplies the misbehaving
hardware.  A :class:`FaultPlan` is a frozen, picklable description of how
unreliable the simulated HP C2447 should be; a :class:`FaultInjector` is
its per-machine runtime (seeded RNG, grown-defect set, spare-sector pool,
event log).  The drive consults the injector once per *media* operation
(on-board cache hits never touch the platters and are never faulted), so
for a given plan the injected fault sequence is a pure function of the
simulated I/O stream -- same seed, same run, same faults.

Fault model (see ``docs/fault-injection.md``):

* **transient** -- the operation consumes its mechanical service time but
  the controller reports failure; nothing reaches the platters on a write.
  A retry redraws, so bounded driver retries recover with overwhelming
  probability.
* **torn** -- a write lays down a sector *prefix* (reusing the drive's
  ``InFlightWrite`` per-sector ECC semantics) and then fails; the retried
  write re-covers the whole range.
* **medium** -- a sector has gone bad.  Grown defects are discovered by
  writes (the write fails at the bad sector; the driver issues a SCSI-style
  REASSIGN BLOCKS and retries); latent defects are discovered by reads
  (the data is gone -- the failure propagates up as EIO).
* **timeout** -- the controller gives up after ``timeout_penalty`` seconds
  without transferring anything; retryable like a transient.

When no plan is attached (the default everywhere) not a single extra
simulation event, timeout, or RNG draw occurs: fault-free runs are
byte-identical to runs of a tree without this package
(``tests/faults/test_equivalence.py`` proves it).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Optional


class MediaError(Exception):
    """An unrecoverable media failure surfaced to the blocked syscall (EIO).

    Raised by the buffer cache when a read's retries are exhausted (the
    sector's data is gone) or a write has permanently failed; the simulated
    user process sees it exactly where a UNIX process would see ``EIO``.
    """

    def __init__(self, daddr: int, detail: str = "unreadable media") -> None:
        super().__init__(f"EIO: {detail} at daddr {daddr}")
        self.code = "EIO"
        self.daddr = daddr


class FaultKind(enum.Enum):
    """What went wrong at the drive."""

    TRANSIENT = "transient"
    TORN = "torn"
    MEDIUM = "medium"
    TIMEOUT = "timeout"


#: request error codes (``DiskRequest.error``) the driver reports upward
EIO = "EIO"                  # read failed permanently: the data is lost
NOSPARE = "nospare"          # write hit a defect and the spare pool is dry
EXHAUSTED = "exhausted"      # bounded retries ran out on a transient fault


def is_retryable(code: Optional[str]) -> bool:
    """True when a later re-issued write of the same block can succeed.

    Transient/torn/timeout exhaustion redraws on the next attempt, so the
    cache re-dirties the buffer and lets the syncer retry; ``EIO`` and
    ``nospare`` are final.
    """
    return code == EXHAUSTED


@dataclass(frozen=True)
class Fault:
    """One injected fault, decided before the media operation starts.

    The drive leaves it on ``disk.sense`` (SCSI-style sense data) for the
    driver's recovery policy to read.
    """

    kind: FaultKind
    #: sectors that reach the platters before the failure (writes only)
    sectors_applied: int = 0
    #: the defective sector for MEDIUM faults
    bad_lbn: Optional[int] = None


@dataclass(frozen=True)
class FaultEvent:
    """One entry in the injector's typed event log."""

    time: float
    kind: str        # inject / retry / remap / redirty / requeue /
    #                # read_eio / lost_write / sync_write_failed /
    #                # journal_degraded
    detail: str


@dataclass(frozen=True)
class FaultPlan:
    """Frozen, picklable description of disk unreliability.

    Rates are per *media operation* probabilities.  The plan is inert data:
    :meth:`build` creates the per-machine runtime.  Keeping the plan frozen
    and the runtime separate is what lets every build of the same plan see
    the identical fault sequence.
    """

    seed: int = 0
    transient_read_rate: float = 0.0
    transient_write_rate: float = 0.0
    torn_write_rate: float = 0.0
    timeout_rate: float = 0.0
    #: per-write probability that a sector under the head goes bad (found
    #: and reassigned by the write path; no data is lost)
    grown_defect_rate: float = 0.0
    #: per-read probability that a sector under the head has rotted (found
    #: by the read path; the data IS lost -- this is the EIO generator)
    latent_defect_rate: float = 0.0
    #: simulated seconds a controller timeout wastes
    timeout_penalty: float = 0.05
    #: reassignment pool; when dry, defective writes fail with ``nospare``
    spares: int = 1024

    def build(self) -> "FaultInjector":
        return FaultInjector(self)


class FaultInjector:
    """Per-machine fault runtime: seeded RNG, defect set, spares, log."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.rng = random.Random(plan.seed)
        #: currently defective sectors (grown + latent, until reassigned)
        self.bad_sectors: set[int] = set()
        #: lbn -> spare slot index, SCSI REASSIGN BLOCKS bookkeeping
        self.reassigned: dict[int, int] = {}
        self.spares_left = plan.spares
        self.events: list[FaultEvent] = []
        self.injected = 0

    # -- the drive-facing API ------------------------------------------
    def draw(self, lbn: int, nsectors: int, is_write: bool) -> Optional[Fault]:
        """Decide the fate of one media operation (one RNG draw, plus one
        more for a torn write's prefix length or a fresh defect's site)."""
        plan = self.plan
        bad = self._bad_in_range(lbn, nsectors)
        if bad is not None:
            return Fault(FaultKind.MEDIUM, sectors_applied=bad - lbn,
                         bad_lbn=bad)
        u = self.rng.random()
        if u < plan.timeout_rate:
            return Fault(FaultKind.TIMEOUT)
        u -= plan.timeout_rate
        if is_write:
            if u < plan.transient_write_rate:
                return Fault(FaultKind.TRANSIENT)
            u -= plan.transient_write_rate
            if u < plan.torn_write_rate:
                applied = (self.rng.randrange(1, nsectors)
                           if nsectors > 1 else 0)
                return Fault(FaultKind.TORN, sectors_applied=applied)
            u -= plan.torn_write_rate
            if u < plan.grown_defect_rate:
                bad = lbn + self.rng.randrange(nsectors)
                self.bad_sectors.add(bad)
                return Fault(FaultKind.MEDIUM, sectors_applied=bad - lbn,
                             bad_lbn=bad)
        else:
            if u < plan.transient_read_rate:
                return Fault(FaultKind.TRANSIENT)
            u -= plan.transient_read_rate
            if u < plan.latent_defect_rate:
                bad = lbn + self.rng.randrange(nsectors)
                self.bad_sectors.add(bad)
                return Fault(FaultKind.MEDIUM, sectors_applied=bad - lbn,
                             bad_lbn=bad)
        return None

    def reassign(self, lbn: int) -> bool:
        """SCSI REASSIGN BLOCKS: map *lbn* onto a spare sector.

        The defective physical sector is retired and the logical address
        serves from the spare from now on.  (The store keeps logical
        addressing, so no data relocation is modelled -- the observable
        semantics are 'this LBN works again, its old contents are gone'.)
        Returns False when the spare pool is exhausted.
        """
        if self.spares_left <= 0:
            return False
        self.spares_left -= 1
        self.reassigned[lbn] = len(self.reassigned)
        self.bad_sectors.discard(lbn)
        return True

    # -- event log ------------------------------------------------------
    def log(self, time: float, kind: str, detail: str) -> None:
        self.events.append(FaultEvent(time, kind, detail))

    def degradations(self) -> list[FaultEvent]:
        """Events where a failure became visible above the driver."""
        visible = {"read_eio", "lost_write", "requeue", "redirty",
                   "sync_write_failed", "op_failed", "wedged",
                   "journal_degraded"}
        return [event for event in self.events if event.kind in visible]

    def _bad_in_range(self, lbn: int, nsectors: int) -> Optional[int]:
        bad = self.bad_sectors
        if not bad:
            return None
        for sector in range(lbn, lbn + nsectors):
            if sector in bad:
                return sector
        return None


#: named fault profiles (CLI / CI / crash explorer); all recoverable unless
#: the profile includes latent defects, which surface EIO by design
PROFILES = {
    # every fault class recoverable by retry/remap: the crash explorer uses
    # this so victim workloads never abort mid-run
    "transient": lambda seed: FaultPlan(
        seed=seed, transient_read_rate=0.02, transient_write_rate=0.02,
        torn_write_rate=0.015, timeout_rate=0.005),
    # adds write-discovered grown defects: exercises REASSIGN BLOCKS
    "defects": lambda seed: FaultPlan(
        seed=seed, transient_read_rate=0.01, transient_write_rate=0.01,
        torn_write_rate=0.01, timeout_rate=0.003, grown_defect_rate=0.01),
    # the full gauntlet, latent (data-losing) defects included
    "mixed": lambda seed: FaultPlan(
        seed=seed, transient_read_rate=0.015, transient_write_rate=0.015,
        torn_write_rate=0.01, timeout_rate=0.005, grown_defect_rate=0.01,
        latent_defect_rate=0.004),
    "none": lambda seed: FaultPlan(seed=seed),
}


__all__ = [
    "EIO", "EXHAUSTED", "NOSPARE", "Fault", "FaultEvent", "FaultInjector",
    "FaultKind", "FaultPlan", "MediaError", "PROFILES", "is_retryable",
]
