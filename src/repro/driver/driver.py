"""The device driver: queue, C-LOOK elevator, concatenation, tracing.

Matches the paper's base system (section 2): "The scheduling code in the
device driver concatenates sequential requests" and no command queueing at
the disk -- the driver dispatches one (possibly concatenated) operation at a
time and schedules the rest while the drive works.

Every completed request is recorded in ``trace`` with issue/dispatch/complete
timestamps, mirroring the paper's instrumented driver (their 4 MB trace
buffer); ``repro.harness.metrics`` summarises the trace into the statistics
the tables and figures report.  Its rows are compact columns
(:class:`~repro.driver.request.RequestTrace`), not the requests themselves.

Dispatch selection is driven by an incremental **eligibility index** rather
than a per-dispatch scan of the whole queue.  Under the ordering schemes the
held-back queue reaches thousands of requests (the figure 2/4 removes), so
rescanning ``_pending`` per dispatch was quadratic at paper scale.  Instead,
every pending request lives in exactly one bucket:

* ``_eligible`` -- dispatchable now; mirrored in ``_eligible_keys``, a
  ``(lbn, id)``-sorted list the C-LOOK sweep bisects into.
* ``_waiters`` -- requests waiting on one incomplete request, keyed by its
  id: an older overlapping write (the write extent index: the media-order
  invariant for a write, the ``-NR`` rule for a conflict-checked read) or a
  chains dependency.  A completion reclassifies exactly its waiters.
* ``_policy_held`` -- a min-id heap for monotone policies (flag semantics):
  after each completion the driver pops eligible requests off the front and
  stops at the first still-blocked one.

Bucket transitions happen on issue and on completion (a flag policy's
barrier retirement is surfaced through completions too), so
``_select_batch`` is O(eligible), not O(pending).  The dispatch order is
byte-identical to the reference full-scan implementation;
``tests/driver/test_dispatch_index.py`` holds the executable spec.

Every incomplete write -- queued or at the drive -- is one entry of the
**write extent index**, ``_writes``: ``(lbn, id, end_lbn)`` sorted by
``(lbn, id)``, plus ``_longest_write``, the most sectors any write has
covered.  Issue is one ``insort``, completion one bisect-and-delete, and
the overlap question bisects to the first write that could still reach the
request, so the driver's bookkeeping is per request, not per sector
(``tests/driver/reference_write_fifo.py`` keeps the per-sector FIFO it
replaced, and ``tests/driver/test_write_index.py`` holds the two equal).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from typing import Optional

from repro.faults import EIO, EXHAUSTED, NOSPARE, FaultKind
from repro.sim.engine import Engine
from repro.sim.primitives import WaitQueue
from repro.disk.drive import Disk
from repro.driver.ordering import OrderingPolicy
from repro.driver.request import DiskRequest, IOKind, RequestTrace


class DeviceDriver:
    """Queues requests, enforces ordering policy, drives the disk."""

    #: most sectors one concatenated dispatch may carry
    max_batch_sectors = 128
    #: bounded recovery for faulted media operations (see _service_retried):
    #: retry budget, and the backoff step in simulated seconds
    max_retries = 4
    retry_backoff = 0.01

    def __init__(self, engine: Engine, disk: Disk,
                 policy: OrderingPolicy) -> None:
        if policy.eligibility not in ("none", "monotone", "deps"):
            raise ValueError(
                f"{type(policy).__name__}.eligibility is "
                f"{policy.eligibility!r}; the dispatch index needs 'none', "
                "'monotone' or 'deps'")
        self.engine = engine
        self.disk = disk
        self.policy = policy
        # a policy that never holds anything back is never told anything
        self._informs_policy = policy.eligibility != "none"
        self.retries = 0
        self.remaps = 0
        self.io_errors = 0
        # issue-ordered (dicts preserve insertion order); keyed by id so
        # dispatch removal is O(1) even with thousands queued
        self._pending: dict[int, DiskRequest] = {}
        self._work = WaitQueue(engine)
        self._next_id = 0
        self._head_lbn = 0
        geometry = disk.geometry
        self._total_sectors = geometry.total_sectors
        self._sector_size = geometry.sector_size
        # Overlapping writes must reach the media in issue order no matter
        # what the ordering policy allows (a driver invariant: with the -CB
        # block-copy enhancement or freed-block reuse, two in-queue writes
        # can cover the same sectors, and dispatching the younger one first
        # would let stale bytes land last).  Every incomplete write, as
        # (lbn, id, end_lbn) sorted by (lbn, id), and the longest any write
        # has been: no write starting below lbn - _longest_write + 1 can
        # reach lbn.  The driver's one record of the write queue: -NR reads
        # ask it too.
        self._writes: list[tuple[int, int, int]] = []
        self._longest_write = 0
        # -- the eligibility index (see module docstring) ------------------
        self._eligible: dict[int, DiskRequest] = {}
        self._eligible_keys: list[tuple[int, int]] = []
        # mirror sorted by (end_lbn, id): backward concatenation bisects
        # here instead of scanning every eligible request per dispatch
        self._eligible_ends: list[tuple[int, int]] = []
        self._waiters: dict[int, list[int]] = {}
        self._policy_held: list[int] = []
        #: completed requests, in completion order
        self.trace = RequestTrace()
        self.requests_issued = 0
        #: writes issued carrying the ordering flag, completed dispatch
        #: batches, and the deepest the pending queue has been
        self.flagged_writes = 0
        self.batches = 0
        self.queue_peak = 0
        self._tracer = engine.tracer
        # no handle: it would close a driver -> process -> frame -> driver loop
        engine.process(self._run(), name="disk-driver")

    # -- public API -------------------------------------------------------
    def issue(self, kind: IOKind, lbn: int, nsectors: int,
              data: Optional[bytes] = None, flag: bool = False,
              depends_on: Optional[frozenset[int]] = None,
              issuer: str = "") -> DiskRequest:
        """Create and enqueue a request; returns it immediately.

        The caller decides whether to wait: ``yield request.done`` makes the
        write synchronous from the issuing process's point of view.  A
        range outside the disk, or write data that is not *nsectors* whole
        sectors, is refused here with ``ValueError`` (the driver process
        would otherwise die on it at dispatch).
        """
        if lbn < 0 or lbn + nsectors > self._total_sectors:
            raise ValueError(
                f"{kind.value} of sectors [{lbn}, {lbn + nsectors}) outside "
                f"disk (0..{self._total_sectors - 1})")
        if data is not None and len(data) != nsectors * self._sector_size:
            raise ValueError(
                f"{kind.value} at lbn {lbn}: {len(data)} bytes is not "
                f"{nsectors} whole {self._sector_size}-byte sectors")
        self._next_id += 1
        request = DiskRequest(self.engine, self._next_id, kind, lbn, nsectors,
                              data=data, flag=flag, depends_on=depends_on,
                              issuer=issuer)
        request.issue_time = self.engine.now
        if request.is_write:
            insort(self._writes, (lbn, request.id, request.end_lbn))
            if nsectors > self._longest_write:
                self._longest_write = nsectors
        if self._informs_policy:
            self.policy.on_issue(request)
        self._pending[request.id] = request
        self.requests_issued += 1
        if flag:
            self.flagged_writes += 1
        depth = len(self._pending)
        if depth > self.queue_peak:
            self.queue_peak = depth
        if self._tracer is not None:
            request.trace_parent = self._tracer.current()
        self._classify(request)
        # broadcast, not signal: both the dispatch loop and any drain()
        # waiters sleep on the same queue and must all re-check
        self._work.broadcast()
        return request

    def read(self, lbn: int, nsectors: int, issuer: str = "") -> DiskRequest:
        """Issue a read request (convenience wrapper over :meth:`issue`)."""
        return self.issue(IOKind.READ, lbn, nsectors, issuer=issuer)

    def write(self, lbn: int, data: bytes, flag: bool = False,
              depends_on: Optional[frozenset[int]] = None,
              issuer: str = "") -> DiskRequest:
        """Issue a write request (convenience wrapper over :meth:`issue`)."""
        return self.issue(IOKind.WRITE, lbn, len(data) // self._sector_size,
                          data=data, flag=flag, depends_on=depends_on,
                          issuer=issuer)

    @property
    def last_issued_id(self) -> int:
        """Id of the most recently issued request (0 if none yet)."""
        return self._next_id

    @property
    def idle(self) -> bool:
        """True when nothing is queued and nothing is at the drive."""
        return not self._pending and not self._in_flight

    def drain(self):
        """Subroutine: wait until the driver queue is empty and disk idle.

        Usable from simulated processes: ``yield from driver.drain()``.
        """
        while self._pending or self._in_flight:
            # piggyback on completion signals: wake on next completion
            yield self._work.wait()

    # -- the eligibility index --------------------------------------------
    def _classify(self, request: DiskRequest) -> None:
        """Place a pending request into the bucket its state demands.

        Called on issue and when the request it waited on completes; the
        caller has already removed it from its previous bucket.
        """
        policy = self.policy
        eligibility = policy.eligibility
        blocker = None
        if request.is_write:
            blocker = self._overlap_blocker(request)
        elif policy.conflict_checked_reads:
            # -NR: an overlapping earlier write is all that can hold this
            # read, so the policy is not asked about it
            blocker = self._overlap_blocker(request)
            eligibility = "none"
        if blocker is None and eligibility == "deps":
            blockers = policy.blocking_deps(request)
            if blockers:
                blocker = blockers[0]
        if blocker is not None:
            self._waiters.setdefault(blocker, []).append(request.id)
        elif eligibility == "monotone":
            held = self._policy_held
            # if an older request is already policy-held, monotonicity says
            # this one is too -- no need to consult the policy (this is what
            # makes issue O(log n) with a thousand-deep held-back queue)
            if held and held[0] < request.id:
                heapq.heappush(held, request.id)
            elif policy.may_dispatch(request):
                self._promote(request)
            else:
                heapq.heappush(held, request.id)
        else:
            self._promote(request)

    def _promote(self, request: DiskRequest) -> None:
        self._eligible[request.id] = request
        insort(self._eligible_keys, (request.lbn, request.id))
        insort(self._eligible_ends, (request.end_lbn, request.id))

    def _remove_eligible(self, request: DiskRequest) -> None:
        del self._eligible[request.id]
        keys = self._eligible_keys
        index = bisect_left(keys, (request.lbn, request.id))
        del keys[index]
        ends = self._eligible_ends
        index = bisect_left(ends, (request.end_lbn, request.id))
        del ends[index]

    def _overlap_blocker(self, request: DiskRequest) -> Optional[int]:
        """An incomplete *earlier* write overlapping *request*, or None.

        For a write this is the media-order invariant (it dispatches only
        once no older write shares a sector with it); for a conflict-checked
        read it is the paper's -NR rule.  Only earlier writes count: every
        wait points at a smaller id, so the wait graph is acyclic (counting
        later writes once deadlocked the queue), and issuing a write never
        retracts a read's eligibility.

        The answer is the oldest incomplete write on the first sector of
        *request* that an earlier write covers -- what a per-sector FIFO's
        head would say: the smallest id among earlier writes that start at
        or before ``request.lbn`` and reach it, else the first earlier
        write by ``(lbn, id)`` that starts inside the request.  One bisect
        to the first write that could reach ``request.lbn``, then a walk
        that stops at ``request.end_lbn``.
        """
        writes = self._writes
        request_id = request.id
        lbn = request.lbn
        index = bisect_left(writes, (lbn - self._longest_write + 1,))
        count = len(writes)
        oldest = None
        while index < count:
            start, other, end = writes[index]
            if start > lbn:
                break
            if end > lbn and other < request_id and (
                    oldest is None or other < oldest):
                oldest = other
            index += 1
        if oldest is not None:
            return oldest
        end_lbn = request.end_lbn
        while index < count:
            start, other, _end = writes[index]
            if start >= end_lbn:
                break
            if other < request_id:
                return other
            index += 1
        return None

    def _after_completions(self, batch: list[DiskRequest]) -> None:
        """Wake whatever this batch's completions made dispatchable."""
        pending = self._pending
        waiters = self._waiters
        for request in batch:
            for waiter in waiters.pop(request.id, ()):
                self._classify(pending[waiter])
        # monotone policies release the held-back queue in issue order:
        # pop until the first still-blocked request (all later ones are
        # blocked too, so nothing past it needs a look)
        held = self._policy_held
        policy = self.policy
        while held and policy.may_dispatch(pending[held[0]]):
            self._promote(pending[heapq.heappop(held)])

    # -- the dispatch loop -------------------------------------------------
    _in_flight: bool = False

    def _run(self):
        while True:
            batch = self._select_batch()
            if batch is None:
                yield self._work.wait()
                continue
            now = self.engine.now
            total_sectors = 0
            for request in batch:
                request.dispatch_time = now
                total_sectors += request.nsectors
                del self._pending[request.id]
                self._remove_eligible(request)
            self._in_flight = True
            first = batch[0]
            if first.is_write:
                data = b"".join(r.data for r in batch)
                yield from self._service_retried(
                    first.lbn, total_sectors, True, data, batch)
            else:
                yield from self._service_retried(
                    first.lbn, total_sectors, False, None, batch)
            self._in_flight = False
            self._head_lbn = first.lbn + total_sectors
            done_at = self.engine.now
            for request in batch:
                request.complete_time = done_at
                # the payload is on the platters now (the media log keeps
                # the drive's record of the transfer): an issuer that holds
                # on to its request does not hold its bytes
                request.data = None
                if request.is_write:
                    writes = self._writes
                    del writes[bisect_left(writes,
                                           (request.lbn, request.id))]
                if self._informs_policy:
                    self.policy.on_complete(request)
                self.trace.append(request)
            self.batches += 1
            if self._tracer is not None:
                self._record_batch(batch)
            self._after_completions(batch)
            # completion callbacks run after *all* policy bookkeeping so a
            # callback that issues new I/O sees a consistent policy state
            for request in batch:
                for callback in request.on_complete:
                    callback(request)
                # release the callbacks too: their closures reference cache
                # buffers, which an issuer holding the request would keep
                request.on_complete = ()
                request.done.succeed()
            # wake anyone waiting for queue drain / eligibility changes
            self._work.broadcast()
            # idle, this frame keeps no request (nor payload): issuers own them
            first = request = data = None

    def _service_retried(self, lbn: int, nsectors: int, is_write: bool,
                         data, batch: list[DiskRequest]):
        """One media operation with bounded retry, backoff, and reassignment.

        The fault-free path is a single ``disk.service`` call and one
        ``sense is None`` check -- byte-identical to the pre-fault driver.
        Recovery policy on failure:

        * transient / torn / timeout -- re-issue after an escalating backoff,
          up to ``max_retries`` attempts; each retry redraws, so recovery is
          the overwhelmingly common outcome.
        * medium error on a write -- SCSI REASSIGN BLOCKS the defective
          sector, then re-issue immediately.  Reassignments make progress
          (the defect is gone) so they do not count against the retry
          budget; the spare pool bounds them instead.
        * medium error on a read -- the sector's data is gone; no retry can
          recover it.  Fail at once.

        A request that cannot be recovered completes *normally* through the
        driver (FIFO retirement, policy bookkeeping, callbacks) with
        ``request.error`` set; the buffer cache decides what failure means.
        """
        disk = self.disk
        yield from disk.service(lbn, nsectors, is_write, data)
        sense = disk.sense
        if sense is None:
            return
        attempts = 0
        while sense is not None:
            if sense.kind is FaultKind.MEDIUM:
                if not is_write:
                    self._fail_batch(batch, EIO, sense.kind)
                    return
                if not disk.reassign_block(sense.bad_lbn):
                    self._fail_batch(batch, NOSPARE, sense.kind)
                    return
                self.remaps += 1
            else:
                attempts += 1
                if attempts > self.max_retries:
                    self._fail_batch(batch,
                                     EXHAUSTED if is_write else EIO,
                                     sense.kind)
                    return
                yield self.engine.timeout(self.retry_backoff * attempts)
            self.retries += 1
            disk.faults.log(self.engine.now, "retry",
                            f"{'write' if is_write else 'read'} lbn={lbn} "
                            f"after {sense.kind.value} (attempt {attempts})")
            yield from disk.service(lbn, nsectors, is_write, data)
            sense = disk.sense

    def _fail_batch(self, batch: list[DiskRequest], code: str,
                    kind: FaultKind) -> None:
        """Mark every request in a doomed batch with a typed error code."""
        self.io_errors += len(batch)
        for request in batch:
            request.error = code
        self.disk.faults.log(
            self.engine.now, "io_error",
            f"{code} ({kind.value}) ids={[r.id for r in batch]} "
            f"lbn={batch[0].lbn}")

    def _record_batch(self, batch: list[DiskRequest]) -> None:
        """Tracing-on completion path: queue-residency spans.

        Purely retrospective -- built from the stamps the driver keeps
        anyway, so the traced dispatch sequence is identical to untraced.
        """
        tracer = self._tracer
        for request in batch:
            name = ("driver.queue.write" if request.is_write
                    else "driver.queue.read")
            tracer.record(
                name, "driver", request.issue_time, request.dispatch_time,
                "driver.queue", async_id=request.id,
                parent=request.trace_parent,
                args={"id": request.id, "lbn": request.lbn,
                      "nsectors": request.nsectors, "issuer": request.issuer,
                      "flag": request.flag})

    # -- selection ----------------------------------------------------------
    def _select_batch(self) -> Optional[list[DiskRequest]]:
        """Pick the next dispatch: C-LOOK among eligible, then concatenate.

        The eligible set is maintained incrementally (see module docstring);
        selection bisects the ``(lbn, id)``-sorted keys for the first entry
        at or past the head (the C-LOOK sweep) and wraps to the global
        minimum when the sweep is past everything.
        """
        keys = self._eligible_keys
        if not keys:
            return None
        index = bisect_left(keys, (self._head_lbn, 0))
        if index == len(keys):
            index = 0
        chosen = self._eligible[keys[index][1]]
        return self._concatenate(chosen)

    def _lowest_at(self, lbn: int, kind: IOKind,
                   chosen: DiskRequest) -> Optional[DiskRequest]:
        """First-issued eligible *kind* request starting at *lbn* (not
        *chosen*); keys are (lbn, id)-sorted, so the bisect lands on the
        lowest id and the walk only skips other-kind requests."""
        keys = self._eligible_keys
        eligible = self._eligible
        index = bisect_left(keys, (lbn, 0))
        while index < len(keys) and keys[index][0] == lbn:
            request = eligible[keys[index][1]]
            if request.kind is kind and request is not chosen:
                return request
            index += 1
        return None

    def _concatenate(self, chosen: DiskRequest) -> list[DiskRequest]:
        """Merge LBN-contiguous, same-direction eligible requests.

        First-issued (lowest id) wins whenever two eligible requests could
        anchor the same extension point -- in both the forward (by start
        LBN) and backward (by end LBN) directions.  Backward candidates are
        drawn from the forward pass's residue: only the first-issued
        request at its start LBN may anchor a backward extension, and never
        one the forward pass already consumed.  Both directions bisect the
        sorted key mirrors, so a dispatch costs O(batch · log eligible)
        instead of a scan of every eligible request
        (``tests/driver/test_concat_index.py`` holds the executable spec).
        """
        kind = chosen.kind
        max_total = self.max_batch_sectors
        batch = [chosen]
        total = chosen.nsectors
        consumed: set[int] = set()
        # extend forward
        cursor = chosen.end_lbn
        while total < max_total:
            nxt = self._lowest_at(cursor, kind, chosen)
            if nxt is None:
                break
            batch.append(nxt)
            consumed.add(nxt.id)
            total += nxt.nsectors
            cursor = nxt.end_lbn
        # extend backward
        ends = self._eligible_ends
        eligible = self._eligible
        cursor = chosen.lbn
        while total < max_total:
            index = bisect_left(ends, (cursor, 0))
            prev = None
            while index < len(ends) and ends[index][0] == cursor:
                request = eligible[ends[index][1]]
                if (request.kind is kind and request is not chosen
                        and request.id not in consumed
                        and self._lowest_at(request.lbn, kind, chosen)
                        is request):
                    prev = request
                    break
                index += 1
            if prev is None:
                break
            batch.insert(0, prev)
            consumed.add(prev.id)
            total += prev.nsectors
            cursor = prev.lbn
        return batch
