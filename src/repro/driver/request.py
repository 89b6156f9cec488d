"""Disk request objects and their instrumentation fields."""

from __future__ import annotations

import enum
from typing import Callable, Optional

from repro.sim.engine import Engine
from repro.sim.events import Event

#: shared by every request without dependencies (``frozenset()`` allocates)
_NO_DEPS: frozenset[int] = frozenset()


class IOKind(enum.Enum):
    """Direction of a disk request."""

    READ = "read"
    WRITE = "write"


class DiskRequest:
    """One request issued to the device driver.

    Ordering metadata:

    * ``flag`` -- the one-bit ordering flag of section 3.1 (meaning decided
      by the driver's :class:`~repro.driver.ordering.FlagPolicy`).
    * ``depends_on`` -- request ids that must complete first (section 3.2
      scheduler chains).  Only previously issued requests may be named.

    Timestamps (simulated seconds) populated by the driver:

    * ``issue_time`` -- handed to the driver,
    * ``dispatch_time`` -- sent to the drive,
    * ``complete_time`` -- media operation finished.

    ``done`` fires at completion; ``on_complete`` callbacks run just before
    (this is the paper's "pre-defined procedure in the higher-level module",
    used by the buffer cache and by soft updates' ISR-time processing).
    """

    __slots__ = ("id", "kind", "is_write", "lbn", "nsectors", "end_lbn",
                 "data", "flag", "depends_on", "issuer", "issue_time",
                 "dispatch_time", "complete_time", "done", "on_complete",
                 "trace_parent", "error")

    def __init__(self, engine: Engine, request_id: int, kind: IOKind,
                 lbn: int, nsectors: int, data: Optional[bytes] = None,
                 flag: bool = False,
                 depends_on: Optional[frozenset[int]] = None,
                 issuer: str = "") -> None:
        if nsectors <= 0:
            raise ValueError("request must cover at least one sector")
        if kind is IOKind.WRITE and data is None:
            raise ValueError("write request without data")
        if kind is IOKind.READ and flag:
            raise ValueError("ordering flags apply only to writes")
        self.id = request_id
        self.kind = kind
        #: the driver and its policies ask this on every classification,
        #: dispatch and completion; the kind is immutable after issue
        self.is_write = kind is IOKind.WRITE
        self.lbn = lbn
        self.nsectors = nsectors
        #: one past the last sector; lbn/nsectors are immutable after issue,
        #: and overlap tests in the driver's hot loop read this constantly
        self.end_lbn = lbn + nsectors
        self.data = data
        self.flag = flag
        self.depends_on: frozenset[int] = depends_on or _NO_DEPS
        self.issuer = issuer
        self.issue_time: float = -1.0
        self.dispatch_time: float = -1.0
        self.complete_time: float = -1.0
        self.done: Event = Event(engine)
        self.on_complete: list[Callable[["DiskRequest"], None]] = []
        #: id of the span that issued this request (tracing only; None when
        #: observability is off)
        self.trace_parent: Optional[int] = None
        #: None on success; a repro.faults error code ("EIO", "nospare",
        #: "exhausted") when the driver gave up on this request
        self.error: Optional[str] = None

    # -- derived metrics (valid once complete) ---------------------------
    @property
    def queue_delay(self) -> float:
        """Seconds spent waiting in the driver queue."""
        return self.dispatch_time - self.issue_time

    @property
    def access_time(self) -> float:
        """Drive service time (the paper's 'disk access time')."""
        return self.complete_time - self.dispatch_time

    @property
    def response_time(self) -> float:
        """Issue-to-completion (the paper's 'driver response time')."""
        return self.complete_time - self.issue_time

    def overlaps(self, lbn: int, nsectors: int) -> bool:
        return self.lbn < lbn + nsectors and lbn < self.end_lbn

    def __repr__(self) -> str:
        tag = "F" if self.flag else ""
        dep = f" deps={sorted(self.depends_on)}" if self.depends_on else ""
        return (f"<DiskRequest #{self.id} {self.kind.value}{tag} "
                f"lbn={self.lbn}+{self.nsectors}{dep}>")
