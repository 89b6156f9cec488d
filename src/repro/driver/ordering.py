"""Ordering policies: flag semantics (section 3.1) and chains (section 3.2).

A policy answers one question for the elevator: *may this pending request be
dispatched right now?*  A policy that can hold a request back sees every
issue and completion so it can maintain whatever bookkeeping its semantics
need.

Flag semantics compared by the paper (figure 1):

* ``FULL`` -- a flagged request is a full barrier: it waits for everything
  issued before it, and nothing issued after it may pass it.
* ``BACK`` -- requests issued after a flagged request may not be scheduled
  before it *or anything issued before it*; the flagged request itself
  reorders freely with earlier non-flagged requests.
* ``PART`` -- requests issued after a flagged request may not be scheduled
  before *it*; everything else reorders freely.
* ``IGNORE`` -- the flag is ignored (no metadata protection; baseline).

``-NR`` (any semantics): non-conflicting reads bypass writes that are waiting
because of ordering restrictions.  A read conflicts if it overlaps an
incomplete earlier write -- the same fact as the driver's own media-order
invariant, so the driver decides it from its write extent index (one
sorted entry per incomplete write) and a policy keeps no record of the
write queue.
"""

from __future__ import annotations

import enum
import heapq
from collections import deque

from repro.driver.request import DiskRequest


class FlagSemantics(enum.Enum):
    """The meaning of the one-bit ordering flag."""

    FULL = "Full"
    BACK = "Back"
    PART = "Part"
    IGNORE = "Ignore"


class OrderingPolicy:
    """Interface the driver consults before dispatching.

    Contract: a policy's dispatchability answers may change **only** inside
    :meth:`on_issue` and :meth:`on_complete` (the driver relies on this to
    keep an incremental eligibility index instead of rescanning the whole
    queue per dispatch), and issuing a request never makes an already
    dispatchable *write* undispatchable.  ``may_dispatch`` must be free of
    observable side effects -- the driver may call it zero, one, or many
    times per request.

    ``eligibility`` tells the driver how blocked requests wake up; every
    policy declares one of the three (the driver refuses anything else at
    construction):

    * ``"none"`` -- nothing is ever policy-held; the driver makes no
      per-request call to the policy at all.
    * ``"monotone"`` -- blocked-ness is monotone in issue id: if a request
      is policy-held, every later-issued request is too (the flag
      semantics).  The driver keeps held requests in a min-id heap and asks
      :meth:`may_dispatch` from the front after each completion.
    * ``"deps"`` -- a request is held exactly while a dependency named by
      :meth:`blocking_deps` is incomplete (scheduler chains).  The driver
      asks nothing else and watches one incomplete dependency at a time.

    ``conflict_checked_reads`` marks policies whose *read* admission is
    exactly "no overlap with an incomplete earlier write" (the ``-NR``
    rule and chains' natural read bypass); the driver decides such a read
    from its own write extent index and never asks the policy about it.
    """

    #: ``"none"``, ``"monotone"`` or ``"deps"``; a subclass must say which
    eligibility = None
    conflict_checked_reads = False

    def on_issue(self, request: DiskRequest) -> None:
        """A request entered the driver queue."""

    def on_complete(self, request: DiskRequest) -> None:
        """A request finished at the drive."""

    def may_dispatch(self, request: DiskRequest) -> bool:
        """May *request* be sent to the drive now? (``"monotone"``)"""
        raise NotImplementedError

    def blocking_deps(self, request: DiskRequest) -> list[int]:
        """Incomplete request ids *request* waits on (``"deps"`` policies)."""
        return []


class FlagPolicy(OrderingPolicy):
    """Scheduler-enforced ordering via the one-bit flag.

    Eligibility is monotone in issue order for every flag meaning: a
    request is blocked exactly when some older flagged/incomplete work
    remains, a condition that only grows with the issue id.  (With
    ``read_bypass`` the reads drop out of that ordering: the driver admits
    them on its own data-conflict check and never asks.)  The driver uses
    this to keep held-back queues -- which reach thousands of requests
    under the remove benchmarks -- out of the per-dispatch scan entirely.
    """

    def __init__(self, semantics: FlagSemantics,
                 read_bypass: bool = False) -> None:
        self.semantics = semantics
        self.read_bypass = read_bypass
        if semantics is FlagSemantics.IGNORE:
            # IGNORE admits everything unconditionally (even conflicting
            # reads -- the driver's write extent index still serializes
            # overlapping writes), so the driver never calls it
            self.eligibility = "none"
            self.conflict_checked_reads = False
        else:
            self.eligibility = "monotone"
            self.conflict_checked_reads = read_bypass
        # ids of incomplete requests (issued, not yet completed)
        self._incomplete: set[int] = set()
        self._min_incomplete_heap: list[int] = []
        # ids of incomplete *flagged* requests
        self._flagged_incomplete: set[int] = set()
        self._min_flagged_heap: list[int] = []
        # BACK: flagged ids not yet retired (retired once everything issued
        # at-or-before them has completed); kept in issue order
        self._barriers: deque[int] = deque()

    # -- bookkeeping ------------------------------------------------------
    def on_issue(self, request: DiskRequest) -> None:
        self._incomplete.add(request.id)
        heapq.heappush(self._min_incomplete_heap, request.id)
        if request.flag:
            self._flagged_incomplete.add(request.id)
            heapq.heappush(self._min_flagged_heap, request.id)
            self._barriers.append(request.id)

    def on_complete(self, request: DiskRequest) -> None:
        self._incomplete.discard(request.id)
        self._flagged_incomplete.discard(request.id)
        self._retire_barriers()

    def _min_incomplete(self) -> int | None:
        heap = self._min_incomplete_heap
        while heap and heap[0] not in self._incomplete:
            heapq.heappop(heap)
        return heap[0] if heap else None

    def _min_flagged_incomplete(self) -> int | None:
        heap = self._min_flagged_heap
        while heap and heap[0] not in self._flagged_incomplete:
            heapq.heappop(heap)
        return heap[0] if heap else None

    def _retire_barriers(self) -> None:
        floor = self._min_incomplete()
        while self._barriers and (floor is None or self._barriers[0] < floor):
            self._barriers.popleft()

    # -- the decision -------------------------------------------------------
    def may_dispatch(self, request: DiskRequest) -> bool:
        if self.semantics is FlagSemantics.IGNORE:
            return True
        if self.semantics is FlagSemantics.PART:
            floor = self._min_flagged_incomplete()
            return floor is None or request.id <= floor

        if self.semantics is FlagSemantics.BACK:
            self._retire_barriers()
            return not self._barriers or request.id <= self._barriers[0]

        # FULL: may not pass any earlier incomplete flagged request; and a
        # flagged request waits for *everything* issued before it.
        floor = self._min_flagged_incomplete()
        if floor is not None and request.id > floor:
            return False
        if request.flag:
            oldest = self._min_incomplete()
            if oldest is not None and oldest < request.id:
                return False
        return True


class ChainsPolicy(OrderingPolicy):
    """Scheduler chains: per-request dependency lists.

    A request is dispatchable once every request it names has completed.
    Reads carry no dependencies, so they bypass ordering queues naturally
    (the paper notes ``-NR`` "holds no meaning with scheduler chains"),
    subject only to the driver's data-conflict check.
    """

    eligibility = "deps"
    conflict_checked_reads = True

    def __init__(self) -> None:
        self._incomplete: set[int] = set()

    def on_issue(self, request: DiskRequest) -> None:
        bad = [dep for dep in request.depends_on if dep >= request.id]
        if bad:
            raise ValueError(
                f"request #{request.id} depends on not-yet-issued ids {bad}; "
                f"chains may only reference previously issued requests")
        self._incomplete.add(request.id)

    def on_complete(self, request: DiskRequest) -> None:
        self._incomplete.discard(request.id)

    def blocking_deps(self, request: DiskRequest) -> list[int]:
        """The still-incomplete dependencies, oldest first."""
        return sorted(dep for dep in request.depends_on
                      if dep in self._incomplete)
