"""The soft updates dependency manager.

Central ideas (section 4.2):

* dependency information is kept *per update*, not per block;
* any dirty block can be written at any time -- updates with unsatisfied
  dependencies are rolled back in the image handed to the disk, so the
  written block is always consistent with the current on-disk state;
* completion processing happens at I/O completion (ISR context) when
  trivial, and through a workitem queue when it can block (link-count drops,
  bitmap frees).

Every buffer with dependencies is pinned in the cache while tracked.  At
each write's issue :meth:`SoftDepManager.write_starting` applies rollbacks
to the outgoing image and snapshots which dependencies that write carries
(an :class:`InFlight` batch); :meth:`SoftDepManager.write_done` completes
exactly that batch.  Because the driver completes overlapping writes in
issue order, batches complete FIFO per buffer.

Deviation from the paper, documented: the paper undoes updates in the buffer
itself, inhibits access during the write, and redoes them afterwards (with a
15-second workitem fallback to force redone blocks back to disk).  We apply
the undo to the write-time snapshot instead, so the in-memory copy is never
stale; a block whose write omitted a rolled-back update is simply re-dirtied
when its blocking dependency clears.  The write orderings produced are
identical; only the in-memory bookkeeping differs.
"""

from __future__ import annotations

import struct
from collections import deque
from typing import Generator, Optional

from repro.ordering.softupdates.structures import (
    AllocDep,
    DirAdd,
    DirRem,
    FreeWork,
    InFlight,
    InodeDepState,
    IndirDepState,
    PageDepState,
    TrackedBuffer,
    DINODE_SIZE_AT,
    dinode_slot_offset,
)

#: the ``softdep`` daemon's wakeup period, seconds: the paper's workitem
#: queue is serviced "within one second"
WAKEUP_INTERVAL = 1.0


class SoftDepManager:
    """Tracks, rolls back, and retires soft-updates dependencies."""

    def __init__(self, fs) -> None:
        self.fs = fs
        self.cache = fs.cache
        self.geometry = fs.geometry
        self.inodedeps: dict[int, InodeDepState] = {}
        self.pagedeps: dict[int, PageDepState] = {}
        self.indirdeps: dict[int, IndirDepState] = {}
        #: data daddr -> alloc deps satisfied by that block's first write
        self.allocsafe: dict[int, list[AllocDep]] = {}
        self.tracked: dict[int, TrackedBuffer] = {}
        self._inos_by_block: dict[int, set[int]] = {}
        self.workitems: deque = deque()
        # instrumentation
        self.rollbacks = 0
        self.cancelled_adds = 0
        self.deps_created = 0
        #: failed writes whose dependency batch was put back in play
        self.requeues = 0
        #: deferred workitems run by :meth:`service`
        self.workitems_serviced = 0
        self._tracer = fs.engine.tracer
        fs.engine.process(self._run(), name="softdep")  # no handle: see driver

    # ==================================================================
    # buffer tracking
    # ==================================================================
    def track(self, buf) -> None:
        """Pin *buf* so its writes carry dependencies (idempotent); pinned,
        it stays the cache's buffer at its daddr, which the hooks look up."""
        if buf.daddr not in self.tracked:
            buf.hold_count += 1
            self.tracked[buf.daddr] = TrackedBuffer(buf)

    def _maybe_untrack(self, daddr: int) -> None:
        tracked = self.tracked.get(daddr)
        if tracked is None or tracked.inflight:
            return
        if daddr in self.pagedeps or daddr in self.indirdeps \
                or daddr in self.allocsafe:
            return
        if self._inos_by_block.get(daddr):
            return
        tracked.buf.hold_count -= 1
        del self.tracked[daddr]

    # ==================================================================
    # registration (buffers passed HELD by the scheme)
    # ==================================================================
    def record_alloc(self, ip, owner_buf, owner_kind: str, slot: int,
                     new_daddr: int, old_daddr: int, old_size: Optional[int],
                     data_buf) -> AllocDep:
        """allocdirect/allocindirect + allocsafe for a fresh block pointer."""
        self.deps_created += 1
        if owner_kind == "inode":
            dep = AllocDep(owner=("inode", ip.ino), slot=slot,
                           new_daddr=new_daddr, old_daddr=old_daddr,
                           old_size=old_size)
            self._inodedep(ip.ino).alloc[slot] = dep
        else:
            dep = AllocDep(owner=("indir", owner_buf.daddr), slot=slot,
                           new_daddr=new_daddr, old_daddr=old_daddr,
                           old_size=None)
            self.indirdeps.setdefault(
                owner_buf.daddr, IndirDepState(owner_buf.daddr)
            ).alloc[slot] = dep
            self.track(owner_buf)
        self.allocsafe.setdefault(new_daddr, []).append(dep)
        self.track(data_buf)
        return dep

    def record_add(self, dbuf, offset_in_block: int, ip, ibuf) -> None:
        """add/addsafe: entry must wait for the inode write."""
        self.deps_created += 1
        add = DirAdd(dir_daddr=dbuf.daddr, offset=offset_in_block, ino=ip.ino)
        self.pagedeps.setdefault(
            dbuf.daddr, PageDepState(dbuf.daddr)).adds[offset_in_block] = add
        self._inodedep(ip.ino).pending_adds.append(add)
        self.track(dbuf)
        self.track(ibuf)

    def record_remove(self, dbuf, offset_in_block: int, ip) -> bool:
        """remove: returns True if it cancelled a pending add (no I/O at all).

        "If the directory entry has a pending link addition dependency, the
        add and addsafe structures are removed and the link removal proceeds
        unhindered (the add and remove have been serviced with no disk
        writes!)"
        """
        pagedep = self.pagedeps.get(dbuf.daddr)
        if pagedep is not None and offset_in_block in pagedep.adds:
            add = pagedep.adds[offset_in_block]
            if not self._add_in_flight(dbuf.daddr, add):
                del pagedep.adds[offset_in_block]
                self._drop_pending_add(add)
                self.cancelled_adds += 1
                if pagedep.empty:
                    del self.pagedeps[dbuf.daddr]
                self._maybe_untrack(dbuf.daddr)
                return True
        self.deps_created += 1
        self.pagedeps.setdefault(
            dbuf.daddr, PageDepState(dbuf.daddr)).removes.append(DirRem(ip))
        self.track(dbuf)
        return False

    def record_free(self, ip, ibuf, runs: list[tuple[int, int]],
                    ino: Optional[int]) -> None:
        """freeblocks/freefile: bitmap bits clear after the reset write."""
        self.deps_created += 1
        self._inodedep(ip.ino).frees.append(FreeWork(runs=list(runs), ino=ino))
        self.track(ibuf)

    def track_inode_buffer(self, ip, ibuf) -> None:
        """Track *ip*'s inode-block buffer while *ip* has dependencies."""
        if self._inodedep_if_any(ip.ino) is not None:
            self.track(ibuf)

    # -- cancellation at deallocation --------------------------------------
    def cancel_for_release(self, ip,
                           runs: list[tuple[int, int]]) -> list[tuple[int, int]]:
        """Drop dependencies made moot by the file's removal.

        Returns extra runs (from unfinished fragment moves) that must join
        the deferred free list.
        """
        extra = self.cancel_for_truncate(ip, runs)
        dep_state = self.inodedeps.get(ip.ino)
        if dep_state is not None:
            for add in list(dep_state.pending_adds):
                self._drop_pending_add(add)
        return extra

    def cancel_for_truncate(self, ip,
                            runs: list[tuple[int, int]]) -> list[tuple[int, int]]:
        """Drop block dependencies for freed runs; the inode itself (and any
        pending link additions to it) stays live."""
        extra: list[tuple[int, int]] = []
        dep_state = self.inodedeps.get(ip.ino)
        if dep_state is not None:
            for alloc_dep in list(dep_state.alloc.values()):
                extra.extend(alloc_dep.free_on_clear)
                self._drop_alloc(alloc_dep)
        freed = {daddr for daddr, _frags in runs}
        for daddr in freed:
            # dependencies *owned by* freed blocks (paper: "this applies
            # only to directory blocks") are considered complete
            pagedep = self.pagedeps.pop(daddr, None)
            if pagedep is not None:
                for remove in pagedep.removes:
                    self.schedule(self._drop_link_item(remove.ip))
                for add in list(pagedep.adds.values()):
                    self._drop_pending_add(add)
            indirdep = self.indirdeps.pop(daddr, None)
            if indirdep is not None:
                for alloc_dep in list(indirdep.alloc.values()):
                    self._drop_alloc(alloc_dep)
            for alloc_dep in self.allocsafe.pop(daddr, []):
                extra.extend(alloc_dep.free_on_clear)
                self._drop_alloc(alloc_dep)
            self._maybe_untrack(daddr)
        return extra

    def _drop_alloc(self, dep: AllocDep) -> None:
        kind, key = dep.owner
        if kind == "inode":
            state = self.inodedeps.get(key)
            if state is not None and state.alloc.get(dep.slot) is dep:
                del state.alloc[dep.slot]
                self._cleanup_inodedep(key)
        else:
            state = self.indirdeps.get(key)
            if state is not None and state.alloc.get(dep.slot) is dep:
                del state.alloc[dep.slot]
                if state.empty:
                    del self.indirdeps[key]
                self._maybe_untrack(key)
        safelist = self.allocsafe.get(dep.new_daddr)
        if safelist and dep in safelist:
            safelist.remove(dep)
            if not safelist:
                del self.allocsafe[dep.new_daddr]
            self._maybe_untrack(dep.new_daddr)

    def _drop_pending_add(self, add: DirAdd) -> None:
        state = self.inodedeps.get(add.ino)
        if state is not None and add in state.pending_adds:
            state.pending_adds.remove(add)
            self._cleanup_inodedep(add.ino)

    # ==================================================================
    # the write hooks
    # ==================================================================
    def write_starting(self, buf, image: bytearray) -> None:
        daddr = buf.daddr
        tracked = self.tracked.get(daddr)
        if tracked is None:
            return
        batch = InFlight()
        rollbacks_before = self.rollbacks
        # role: inode block
        for ino in sorted(self._inos_by_block.get(daddr, ())):
            state = self.inodedeps.get(ino)
            if state is None:
                continue
            at = self.geometry.inode_offset_in_block(ino)
            rollback_size: Optional[int] = None
            ino_rolled_back = False
            for alloc_dep in state.alloc.values():
                if alloc_dep.satisfied:
                    batch.alloc_written.append(alloc_dep)
                    continue
                struct.pack_into("<I", image,
                                 at + dinode_slot_offset(alloc_dep.slot),
                                 alloc_dep.old_daddr)
                if alloc_dep.old_size is not None:
                    rollback_size = (alloc_dep.old_size if rollback_size is None
                                     else min(rollback_size,
                                              alloc_dep.old_size))
                batch.rolled_back = True
                ino_rolled_back = True
                self.rollbacks += 1
            if rollback_size is not None:
                current = struct.unpack_from("<Q", image,
                                             at + DINODE_SIZE_AT)[0]
                struct.pack_into("<Q", image, at + DINODE_SIZE_AT,
                                 min(current, rollback_size))
            if not ino_rolled_back:
                # an entry may only appear once its inode is on disk fully
                # resolved (no rolled-back pointers): otherwise a crash could
                # expose a reachable directory whose first block pointer is
                # still undone (the MKDIR_BODY case of the BSD code)
                batch.adds_for_inodes.extend(state.pending_adds)
            batch.frees.extend((ino, free_work) for free_work in state.frees)
            state.frees = []
        # role: directory block
        pagedep = self.pagedeps.get(daddr)
        if pagedep is not None:
            for offset, add in pagedep.adds.items():
                if add.inode_written:
                    batch.adds_intact.append(add)
                else:
                    struct.pack_into("<I", image, offset, 0)  # undo the entry
                    batch.rolled_back = True
                    self.rollbacks += 1
            batch.removes.extend(pagedep.removes)
            pagedep.removes = []
        # role: indirect block
        indirdep = self.indirdeps.get(daddr)
        if indirdep is not None:
            for slot, alloc_dep in indirdep.alloc.items():
                if alloc_dep.satisfied:
                    batch.alloc_written.append(alloc_dep)
                else:
                    struct.pack_into("<I", image, 4 * slot,
                                     alloc_dep.old_daddr)
                    batch.rolled_back = True
                    self.rollbacks += 1
        rolled = self.rollbacks - rollbacks_before
        tracer = self._tracer
        if tracer is not None and rolled:
            # zero-length marker so rollbacks are visible on the timeline
            now = self.fs.engine.now
            tracer.record("softupdates.rollback", "ordering", now, now,
                          tracer._track(None),
                          args={"daddr": daddr, "count": rolled})
        tracked.inflight.append(batch)

    def write_done(self, buf) -> None:
        """I/O completion: retire this write's batch (ISR context)."""
        daddr = buf.daddr
        tracked = self.tracked.get(daddr)
        if tracked is None or not tracked.inflight:
            # This write was snapshotted before the buffer was tracked (it
            # was already in flight when the first dependency was recorded),
            # so it carries none of our dependencies and -- crucially -- may
            # even hold a previous owner's bytes (a stale queued write of a
            # freed-and-reallocated block).  It must satisfy nothing.
            return
        batch = tracked.inflight.popleft()
        if buf.error is not None:
            # the write carrying this batch never reached the media: nothing
            # it was supposed to make durable is durable
            self._requeue_failed(daddr, batch, buf)
            return
        # this block's bytes are now initialized on disk: satisfy allocsafe
        for alloc_dep in self.allocsafe.pop(daddr, []):
            alloc_dep.satisfied = True
            self._redirty_owner(alloc_dep)
        # alloc deps whose true pointer was in the written image are done
        for alloc_dep in batch.alloc_written:
            for run in alloc_dep.free_on_clear:
                self.schedule(self._free_runs_item([run], None))
            alloc_dep.free_on_clear = []
            self._drop_alloc(alloc_dep)
        # entries written intact are durable: the add dependency is complete
        for add in batch.adds_intact:
            pagedep = self.pagedeps.get(daddr)
            if pagedep is not None and pagedep.adds.get(add.offset) is add:
                del pagedep.adds[add.offset]
                if pagedep.empty:
                    del self.pagedeps[daddr]
            self._drop_pending_add(add)
        # cleared entries are durable: link counts may now drop
        for remove in batch.removes:
            self.schedule(self._drop_link_item(remove.ip))
        # inodes in this block reached disk: their dir entries may appear
        for add in batch.adds_for_inodes:
            if not add.inode_written:
                add.inode_written = True
                dir_buf = self.cache.peek(add.dir_daddr)
                if dir_buf is not None and dir_buf.valid and not dir_buf.dirty:
                    dir_buf.mark_dirty(self.fs.engine.now)
        # reset pointers are durable: the freed resources may be recycled
        for _owner_ino, free_work in batch.frees:
            self.schedule(self._free_runs_item(free_work.runs, free_work.ino))
        for ino in list(self._inos_by_block.get(daddr, ())):
            self._cleanup_inodedep(ino)
        if batch.rolled_back:
            buf.mark_dirty(self.fs.engine.now)
        self._maybe_untrack(daddr)

    def _requeue_failed(self, daddr: int, batch: InFlight, buf) -> None:
        """Graceful degradation: put a failed write's batch back in play.

        Only ``removes`` and ``frees`` were moved off their live anchors at
        issue; everything else (allocsafe registrations, alloc deps, pending
        adds) is still anchored and simply stays unsatisfied.  Requeueing at
        the *front* preserves the original FIFO so a retried write snapshots
        the same order.  The cache has already re-dirtied the buffer for a
        retryable failure, so the syncer's next sweep re-issues the write
        with these records aboard; a permanent failure leaves them pending,
        which ``drain()`` surfaces as non-convergence rather than silently
        freeing resources whose reset never reached the disk.
        """
        self.requeues += 1
        if batch.removes:
            pagedep = self.pagedeps.setdefault(daddr, PageDepState(daddr))
            pagedep.removes[:0] = batch.removes
        if batch.frees:
            requeued: dict[int, list] = {}
            for owner_ino, free_work in batch.frees:
                requeued.setdefault(owner_ino, []).append(free_work)
            for owner_ino, frees in requeued.items():
                state = self._inodedep(owner_ino)
                state.frees[:0] = frees
        faults = self.cache.driver.disk.faults
        if faults is not None:
            faults.log(self.fs.engine.now, "requeue",
                       f"daddr={daddr} removes={len(batch.removes)} "
                       f"frees={len(batch.frees)} ({buf.error})")

    def _redirty_owner(self, dep: AllocDep) -> None:
        kind, key = dep.owner
        owner_daddr = (self.geometry.inode_block_daddr(key)
                       if kind == "inode" else key)
        owner_buf = self.cache.peek(owner_daddr)
        if owner_buf is not None and owner_buf.valid and not owner_buf.dirty:
            owner_buf.mark_dirty(self.fs.engine.now)

    def _add_in_flight(self, daddr: int, add: DirAdd) -> bool:
        tracked = self.tracked.get(daddr)
        if tracked is None:
            return False
        return any(add in batch.adds_intact for batch in tracked.inflight)

    # ==================================================================
    # inodedep plumbing
    # ==================================================================
    def _inodedep(self, ino: int) -> InodeDepState:
        state = self.inodedeps.get(ino)
        if state is None:
            state = InodeDepState(ino)
            self.inodedeps[ino] = state
            block = self.geometry.inode_block_daddr(ino)
            self._inos_by_block.setdefault(block, set()).add(ino)
        return state

    def _inodedep_if_any(self, ino: int) -> Optional[InodeDepState]:
        return self.inodedeps.get(ino)

    def _cleanup_inodedep(self, ino: int) -> None:
        state = self.inodedeps.get(ino)
        if state is not None and state.empty:
            del self.inodedeps[ino]
            block = self.geometry.inode_block_daddr(ino)
            owners = self._inos_by_block.get(block)
            if owners is not None:
                owners.discard(ino)
                if not owners:
                    del self._inos_by_block[block]
            self._maybe_untrack(block)

    # ==================================================================
    # workitems
    # ==================================================================
    def schedule(self, item) -> None:
        """Queue background work (serviced within one wakeup interval)."""
        self.workitems.append(item)

    def _drop_link_item(self, ip):
        def work() -> Generator:
            yield from self.fs.drop_link(ip)
        return work

    def _free_runs_item(self, runs: list[tuple[int, int]],
                        ino: Optional[int]):
        def work() -> Generator:
            for daddr, frags in runs:
                self.cache.invalidate(daddr, frags)
                yield from self.fs.allocator.free_frags(daddr, frags)
            if ino is not None:
                yield from self.fs.allocator.free_inode(ino)
        return work

    def service(self) -> Generator:
        """Run every currently queued workitem (may queue more).

        Bounded by the queue length at entry so newly queued items wait for
        the next round, and re-checked per pop because the daemon and a
        drain()/fsync() can service concurrently.
        """
        budget = len(self.workitems)
        while budget > 0 and self.workitems:
            item = self.workitems.popleft()
            budget -= 1
            self.workitems_serviced += 1
            if self._tracer is None:
                yield from item()
            else:
                span = self._tracer.begin("softupdates.workitem",
                                          "ordering")
                try:
                    yield from item()
                finally:
                    self._tracer.end(span)

    def _run(self) -> Generator:
        while True:
            yield self.fs.engine.timeout(WAKEUP_INTERVAL)
            yield from self.service()

    # ==================================================================
    # queries / convergence
    # ==================================================================
    def pending(self) -> int:
        return (sum(len(s.alloc) + len(s.pending_adds) + len(s.frees)
                    for s in self.inodedeps.values())
                + sum(len(p.adds) + len(p.removes)
                      for p in self.pagedeps.values())
                + sum(len(i.alloc) for i in self.indirdeps.values())
                + len(self.workitems))

    def inode_busy(self, ino: int) -> bool:
        return ino in self.inodedeps

    def drain(self) -> Generator:
        """Service and flush until no dependencies or dirty state remain."""
        for _ in range(10_000):
            yield from self.service()
            yield from self.cache.sync()
            yield from self.service()
            if self.pending() == 0 and not self.cache.dirty_buffers():
                return
        raise RuntimeError("soft updates drain did not converge")
