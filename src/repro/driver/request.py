"""Disk request objects and their instrumentation fields."""

from __future__ import annotations

import enum
from array import array
from collections.abc import Sequence
from typing import Callable, NamedTuple, Optional

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
                 "trace_parent", "error", "__weakref__")

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


class CompletedRequest(NamedTuple):
    """A :class:`RequestTrace` row: a completed request's fields and stamps,
    read-only, without its payload, ``done`` event or callbacks."""

    id: int
    kind: IOKind
    lbn: int
    nsectors: int
    flag: bool
    depends_on: frozenset[int]
    issuer: str
    issue_time: float
    dispatch_time: float
    complete_time: float
    error: Optional[str]

    is_write = property(lambda self: self.kind is IOKind.WRITE)
    end_lbn = property(lambda self: self.lbn + self.nsectors)
    queue_delay = DiskRequest.queue_delay
    access_time = DiskRequest.access_time
    response_time = DiskRequest.response_time
    overlaps = DiskRequest.overlaps


class RequestTrace(Sequence):
    """The driver's completed requests, in completion order, as columns:
    id, lbn, nsectors and a code (bit 0 write, bit 1 flag) in one
    ``array('q')``, the three stamps in one ``array('d')``, the issuer by
    reference, dependencies and error by row where present.  ~70 bytes a
    request, where keeping the :class:`DiskRequest` kept its ``done`` event
    and callbacks too (~370).  Rows read back as :class:`CompletedRequest`;
    folds read :attr:`ids`, :attr:`writes` and :attr:`stamps`."""

    __slots__ = ("_ints", "_stamps", "_issuers", "_depends", "_errors")

    def __init__(self) -> None:
        self._ints = array("q")
        self._stamps = array("d")
        self._issuers: list[str] = []
        self._depends: dict[int, frozenset[int]] = {}
        self._errors: dict[int, str] = {}

    def append(self, request: DiskRequest) -> None:
        """Record *request*, just completed."""
        issuers = self._issuers
        issuers.append(request.issuer)
        self._ints.extend((request.id, request.lbn, request.nsectors,
                           request.flag << 1 | request.is_write))
        self._stamps.extend((request.issue_time, request.dispatch_time,
                             request.complete_time))
        if request.depends_on:
            self._depends[len(issuers) - 1] = request.depends_on
        if request.error is not None:
            self._errors[len(issuers) - 1] = request.error

    ids = property(lambda self: self._ints[0::4])
    #: 1 for a write, 0 for a read
    writes = property(lambda self: [code & 1 for code in self._ints[3::4]])
    #: the issue, dispatch and completion stamps, a column each
    stamps = property(lambda self: (self._stamps[0::3], self._stamps[1::3],
                                    self._stamps[2::3]))

    def __len__(self) -> int:
        return len(self._issuers)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[row] for row in range(*index.indices(len(self)))]
        row = range(len(self))[index]  # IndexError past either end
        ident, lbn, nsectors, code = self._ints[4 * row:4 * row + 4]
        return CompletedRequest(
            ident, IOKind.WRITE if code & 1 else IOKind.READ, lbn, nsectors,
            bool(code & 2), self._depends.get(row, _NO_DEPS),
            self._issuers[row], *self._stamps[3 * row:3 * row + 3],
            self._errors.get(row))

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))
