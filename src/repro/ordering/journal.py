"""Write-ahead metadata journaling (the "logging" alternative of section 6).

Instead of *ordering* the home-location writes, the scheme makes each
structural change atomic: the affected metadata block images are written
into the reserved journal region (:mod:`repro.fs.journal`), a commit
record seals the transaction, and only then are the home blocks scheduled
as ordinary delayed writes.  All three ordering rules ride on the single
commit barrier:

1. the old pointer is only reset in a transaction that also carries the
   new pointer (both recoverable together, or neither),
2. a freed resource's run is REVOKEd in the freeing transaction, so no
   earlier image of it can replay over a later owner,
3. a new structure's initialized image travels in the same transaction as
   the pointer to it (regular-data initialization, which is never
   journaled, is made durable at home *before* the commit).

Checkpointing is lazy: committed images stay in the log and drift home
through the ordinary delayed-write machinery; the scheme only forces them
home ("checkpoint") when the circular log needs space or the file system
drains.  The durable tail in the journal header never advances past a
transaction whose images are not yet home-durable.

Failure handling: if a journal write fails permanently the scheme fences
itself -- it checkpoints every logged transaction, neutralizes the header
(so a crash cannot replay stale images over newer home state), logs a
``journal_degraded`` fault event, and falls back to the conventional
synchronous-write discipline for the rest of the run.

Replay is recovery: :meth:`JournalScheme.mounted` scans the log and writes
the committed overlay to the home locations before the first operation,
so a machine adopting a crash image boots into the recovered state.  The
same scan drives :mod:`repro.integrity.fsck` (a crash image is judged
*with* its committed log) and, through fsck, the ordering monitor.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Generator, Optional

from repro.faults import is_retryable
from repro.fs import journal
from repro.ordering.base import AllocContext, OrderingScheme
from repro.ordering.guarantees import CrashGuarantees
from repro.sim.primitives import Lock


@dataclass
class _PendingTxn:
    """One committed-but-unretired transaction (in ring order)."""

    seq: int
    pos: int
    #: log fragments consumed: the record extent plus any end-of-log gap
    #: skipped to start it (the gap frees when this transaction retires)
    ring_cost: int
    #: the home frags its IMAGE and REVOKE entries cover, each once
    frags: set
    #: the IMAGE payloads, as (home daddr, block image bytes)
    images: list


class JournalScheme(OrderingScheme):
    """Write-ahead metadata journaling with lazy checkpointing."""

    name = "Journaling"
    uses_block_copy = True
    #: enforced like soft updates: new-block initialization rides the
    #: commit (metadata) or precedes it (regular data)
    alloc_init = True
    #: the commit barrier keeps every crash state recoverable-by-replay;
    #: delayed checkpoints and bitmap writes still admit repairable wear
    declared_guarantees = CrashGuarantees(allows_corruption=False)
    #: machines size a journal area into the geometry for this scheme
    wants_journal = True

    def __init__(self, alloc_init: Optional[bool] = None) -> None:
        super().__init__(alloc_init=alloc_init)
        self._lock: Optional[Lock] = None
        self._next_seq = 1
        self._head_pos = 0
        self._pending: deque[_PendingTxn] = deque()
        #: home frag -> number of pending transactions whose entries cover
        #: it; a checkpoint skips a frag another pending one also covers
        self._covers: dict[int, int] = {}
        self._used = 0
        self._degraded = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def mounted(self) -> None:
        """Recover: replay the committed log, then start with it empty."""
        geo = self.fs.geometry
        if not geo.journal_frags:
            raise RuntimeError(
                "JournalScheme requires a journal area; build the geometry "
                "with repro.fs.layout.with_journal()")
        disk = self.fs.cache.driver.disk
        spf = self.fs.cache.sectors_per_frag
        result = journal.scan_journal(
            lambda daddr, n: disk.read_now(daddr * spf, n * spf), geo)
        journal.replay_into(result, lambda daddr, data: disk.write_now(
            daddr * spf, data), geo)
        self._lock = Lock(self.fs.engine)
        self._next_seq = result.head_seq + 1
        self._head_pos = result.head_pos
        self._pending = deque()
        self._covers = {}
        self._used = 0
        self._degraded = False

    def drain(self) -> Generator:
        """Checkpoint and retire every logged transaction.

        Called by ``fs.sync``/``unmount``.  A quiesced log must be *empty*:
        later unjournaled delayed writes (sizes, times, link counts) can
        make home blocks newer than their logged images, and a replay at
        the next mount must not regress them.
        """
        yield from self._lock.acquire()
        try:
            if self._degraded or not self._pending:
                return
            # room for the whole log: every transaction retires
            ok = yield from self._reclaim(self.fs.geometry.journal_frags - 1)
            if not ok:
                yield from self._enter_degraded("drain checkpoint failed")
        finally:
            self._lock.release()

    def pending_work(self) -> int:
        """Transactions whose images are not yet home-durable.

        Quiescence (idle driver, clean cache) implies zero: every imaged
        buffer has either flushed its equal-or-newer content or been
        invalidated by a later revoking transaction.  The log itself may
        still hold such retired-by-state records; replaying them is a
        no-op.
        """
        if self.fs is None:
            return 0
        cache = self.fs.cache
        count = 0
        for txn in self._pending:
            for daddr, _data in txn.images:
                buf = cache.peek(daddr)
                if buf is not None and (buf.dirty or buf.write_outstanding):
                    count += 1
                    break
        return count

    # ------------------------------------------------------------------
    # the four structural changes
    # ------------------------------------------------------------------
    def link_added(self, dp, dbuf, offset, ip, new_inode: bool) -> Generator:
        # one transaction carries the initialized inode and the entry
        # pointing at it (rules 3 and 1 collapse into the commit barrier)
        ibuf = yield from self._inode_image(ip, dbuf)
        yield from self._journal("link_added", [ibuf, dbuf])

    def link_removed(self, dp, dbuf, offset, ip) -> Generator:
        # rule 1: the cleared entry is recoverable before the link count
        # can drop on disk (the drop itself is an unjournaled delayed
        # write; a crash leaves at worst fsck-repairable link skew)
        yield from self._journal("link_removed", [dbuf])
        yield from self.fs.drop_link(ip)

    def block_allocated(self, ctx: AllocContext) -> Generator:
        cache = self.fs.cache
        must_init = ctx.is_metadata or self.alloc_init
        moved = ctx.moved
        data_consumed = False
        if must_init and not ctx.is_metadata:
            # rule 3 for regular data: initialization goes to its *home*
            # (bulk data does not belong in the log) and must be durable
            # before the pointer commits
            yield from self._ordered_write(ctx.data_buf, "block_init",
                                           ctx.ibuf)
            data_consumed = True
        if ctx.ibuf is None:
            # the pointer lives in the in-core inode: journal its block
            ibuf = yield from self._inode_image(
                ctx.ip, None if data_consumed else ctx.data_buf)
        else:
            ibuf = ctx.ibuf
        images = [(ibuf.daddr, bytes(ibuf.data))]
        if ctx.is_metadata:
            images.append((ctx.data_buf.daddr, bytes(ctx.data_buf.data)))
        # rule 2: the old run's revoke travels with the new pointer, so
        # neither a stale image can replay over a later owner nor can the
        # pointer move be half-recovered
        revokes = [(ctx.old_daddr, ctx.old_frags)] if moved else []
        ok = yield from self._release_on_error(self._ordered_wait(
            self._commit_txn(images, revokes, "block_allocated"),
            "journal_commit", point="block_allocated"),
            ibuf, None if data_consumed else ctx.data_buf)
        if ok:
            cache.bdwrite(ibuf)
            if ctx.is_metadata:
                cache.bdwrite(ctx.data_buf)
            elif not data_consumed:
                cache.brelse(ctx.data_buf)
        else:
            # degraded: conventional's allocation order, not _journal's
            if moved:
                yield from self._ordered_write(
                    ibuf, "frag_move",
                    None if data_consumed else ctx.data_buf)
            else:
                cache.bdwrite(ibuf)
            if ctx.is_metadata:
                yield from self._ordered_write(ctx.data_buf, "block_init")
            elif not data_consumed:
                cache.brelse(ctx.data_buf)
        if moved:
            yield from self._free_moved(ctx)

    def truncated(self, ip, runs: list) -> Generator:
        ibuf = yield from self._inode_image(ip)
        yield from self._journal("truncate", [ibuf], runs)
        yield from self.fs.free_block_list(runs)

    def release_inode(self, ip) -> Generator:
        # rule 2: one transaction zeroes the inode and revokes its runs;
        # after the commit both the blocks and the slot can safely return
        # to the free pool
        runs, ibuf = yield from self._released(ip)
        yield from self._journal("release_inode", [ibuf], runs)
        yield from self.fs.free_block_list(runs)

    def fsync(self, ip) -> Generator:
        # durability via the log: data to home, then the inode image's
        # commit makes the file recoverable
        yield from self.fs.flush_file_data(ip)
        ibuf = yield from self._inode_image(ip)
        yield from self._journal("fsync", [ibuf])

    # ------------------------------------------------------------------
    # transaction machinery
    # ------------------------------------------------------------------
    def _journal(self, point: str, bufs: list, revokes=()) -> Generator:
        """Commit the held *bufs*' images and *revokes* as one transaction,
        then delay-write *bufs*; degraded, write the first synchronously
        (the conventional discipline) and delay the rest."""
        ok = yield from self._release_on_error(self._ordered_wait(
            self._commit_txn([(buf.daddr, bytes(buf.data)) for buf in bufs],
                             revokes, point),
            "journal_commit", point=point), *bufs)
        if not ok:
            first, *bufs = bufs
            yield from self._ordered_write(first, point, *bufs)
        for buf in bufs:
            self.fs.cache.bdwrite(buf)

    def _commit_txn(self, images: list, revokes: list,
                    point: str) -> Generator:
        """Commit one transaction; False = degraded, caller falls back.

        *images* is ``[(home daddr, bytes)]``; *revokes* is
        ``[(daddr, nfrags)]``.  A revoke list too large for one descriptor
        continues into revoke-only records under the same lock hold --
        safe, because the freed runs only reach the allocator after the
        hook returns.
        """
        yield from self._lock.acquire()
        try:
            if self._degraded:
                return False
            geo = self.fs.geometry
            cap = journal.max_entries(geo.frag_size)
            image_entries = [
                journal.Entry(journal.IMAGE, daddr,
                              len(data) // geo.frag_size)
                for daddr, data in images]
            revoke_entries = [journal.Entry(journal.REVOKE, daddr, nfrags)
                              for daddr, nfrags in revokes]
            if len(image_entries) > cap:
                raise RuntimeError(
                    f"{len(image_entries)} images exceed one descriptor")
            room = cap - len(image_entries)
            records = [(image_entries + revoke_entries[:room], images)]
            rest = revoke_entries[room:]
            while rest:
                records.append((rest[:cap], []))
                rest = rest[cap:]
            for entries, payload in records:
                ok = yield from self._write_record(entries, payload)
                if not ok:
                    yield from self._enter_degraded(
                        f"commit failed at {point}")
                    return False
            self._bump("journal.commits")
            return True
        finally:
            self._lock.release()

    def _write_record(self, entries: list, images: list) -> Generator:
        geo = self.fs.geometry
        log_frags = geo.journal_frags - 1
        base = geo.journal_start + 1
        extent = journal.record_extent(entries)
        if extent > log_frags:
            raise RuntimeError(
                f"record of {extent} frags exceeds the {log_frags}-frag log")
        pos = self._head_pos
        gap = 0
        if pos + extent > log_frags:
            gap = log_frags - pos  # skipped to the log start (scanner mirrors)
            pos = 0
        need = gap + extent
        if self._used + need > log_frags:
            ok = yield from self._reclaim(need)
            if not ok:
                return False
        seq = self._next_seq
        desc_raw = journal.descriptor_bytes(geo.frag_size, seq, entries)
        payload = b"".join(data for _daddr, data in images)
        # descriptor + payload first; the commit record is only issued
        # after they are on the platters -- the ordered commit barrier
        ok = yield from self._raw_write(base + pos, desc_raw + payload)
        if not ok:
            return False
        commit_raw = journal.commit_bytes(
            geo.frag_size, seq, journal.txn_checksum(desc_raw, payload))
        ok = yield from self._raw_write(base + pos + extent - 1, commit_raw)
        if not ok:
            return False
        self._next_seq = seq + 1
        head = pos + extent
        if head >= log_frags:
            head = 0
        self._head_pos = head
        self._used += need
        frags = {frag for entry in entries
                 for frag in range(entry.daddr, entry.daddr + entry.nfrags)}
        self._pending.append(_PendingTxn(seq=seq, pos=pos, ring_cost=need,
                                         frags=frags, images=list(images)))
        covers = self._covers
        for frag in frags:
            if frag in covers:
                covers[frag] += 1
            else:
                covers[frag] = 1
        return True

    def _reclaim(self, need: int) -> Generator:
        """Retire transactions from the tail until *need* frags fit.

        Retirement order is forced: each transaction's images must be
        home-durable (checkpointed) and the durable tail advanced past it
        *before* its log space is reused.
        """
        log_frags = self.fs.geometry.journal_frags - 1
        retired = False
        while self._pending and self._used + need > log_frags:
            txn = self._pending[0]
            for daddr, data in txn.images:
                ok = yield from self._checkpoint_image(daddr, data)
                if not ok:
                    return False  # left pending, and counted, for the fence
            self._pending.popleft()
            self._uncount(txn)
            self._used -= txn.ring_cost
            retired = True
            self._bump("journal.checkpoints")
        if self._used + need > log_frags:
            return False
        if retired:
            if self._pending:
                tail_seq, tail_pos = (self._pending[0].seq,
                                      self._pending[0].pos)
            else:
                tail_seq, tail_pos = self._next_seq, self._head_pos
            ok = yield from self._write_header(tail_seq, tail_pos)
            if not ok:
                return False
        return True

    def _uncount(self, txn: _PendingTxn) -> None:
        """Take a transaction leaving the log out of the cover counts."""
        covers = self._covers
        for frag in txn.frags:
            if covers[frag] == 1:
                del covers[frag]
            else:
                covers[frag] -= 1

    def _unsuperseded(self, daddr: int, nfrags: int) -> list:
        """Offsets of an image's frags no newer pending transaction covers.

        The image's own transaction is the oldest still counted (the
        ring's tail, or the fence's current step) and counts each of its
        frags once, so a count above one means a newer committed
        transaction re-imaged or revoked the frag.  Checkpointing it from
        the older image would regress state the newer one owns; the newer
        transaction's own retirement (or revoke) covers it instead.
        """
        covers = self._covers
        return [i for i in range(nfrags) if covers[daddr + i] == 1]

    def _checkpoint_image(self, daddr: int, data: bytes) -> Generator:
        """Make one image's content (or newer) durable at home.

        Decided off the cache's view of the block:

        * no buffer, or a clean one -- it flushed equal-or-newer content
          after the image was taken (eviction requires a completed flush);
          nothing to do,
        * a write in flight -- its snapshot may predate the image: wait it
          out and re-evaluate,
        * dirty and idle -- flush the *current* (newer) content through
          the cache's own path,
        * dirty but held by a process mid-operation -- lay the committed
          image down directly; the holder's newer content is still dirty
          and flushes later (the driver's write extent index keeps any
          older in-flight snapshot ordered before this write).
        """
        cache = self.fs.cache
        frag_size = self.fs.geometry.frag_size
        wanted = self._unsuperseded(daddr, len(data) // frag_size)
        if not wanted:
            return True
        attempts = 0
        while True:
            buf = cache.peek(daddr)
            if buf is None or (not buf.write_outstanding and not buf.dirty):
                return True
            if buf.write_outstanding:
                yield cache._space.wait()  # completions broadcast this
                continue
            if buf.busy:
                return (yield from self._write_image_frags(daddr, data,
                                                           wanted))
            request = cache.start_flush(buf)
            if request is None:
                continue  # state changed underfoot; re-evaluate
            yield request.done
            if request.error is None or not is_retryable(request.error):
                # success, or a permanently lost write (already logged by
                # the cache as a visible degradation): either way no newer
                # write of this block is coming before ours could land
                return True
            attempts += 1
            if attempts >= 4:
                return False

    def _write_image_frags(self, daddr: int, data: bytes,
                           wanted: list) -> Generator:
        """Raw-write the unsuperseded spans of one image to home."""
        frag_size = self.fs.geometry.frag_size
        spans: list[tuple[int, int]] = []
        for i in wanted:
            if spans and spans[-1][0] + spans[-1][1] == i:
                spans[-1] = (spans[-1][0], spans[-1][1] + 1)
            else:
                spans.append((i, 1))
        for start, count in spans:
            chunk = data[start * frag_size:(start + count) * frag_size]
            ok = yield from self._raw_write(daddr + start, chunk)
            if not ok:
                return False
        return True

    def _enter_degraded(self, reason: str) -> Generator:
        """Fence the log and fall back to conventional ordering.

        The fence checkpoints every committed image *before* any
        post-degrade synchronous write, then neutralizes the header: were
        stale images left replayable, a crash after the fallback's writes
        could resurrect them over newer state (e.g. a removed directory
        entry pointing at a freed inode).  If the fence itself cannot
        complete -- the media is failing hard -- the header is left alone
        so replay stays authoritative, and the logged ``journal_degraded``
        event marks the run as degraded for the harness verdicts.
        """
        ok = True
        for txn in self._pending:  # oldest first, each counted out once
            for daddr, data in txn.images:
                done = yield from self._checkpoint_image(daddr, data)
                ok = ok and done
            self._uncount(txn)
        if ok:
            yield from self._write_header(self._next_seq, self._head_pos)
        self._pending.clear()
        self._used = 0
        self._degraded = True
        self._bump("journal.degraded")
        faults = self.fs.cache.driver.disk.faults
        if faults is not None:
            faults.log(self.fs.engine.now, "journal_degraded", reason)

    # ------------------------------------------------------------------
    # raw journal-region I/O (bypasses the buffer cache: the journal is
    # not file-system data; the media log and monitor observe it like any
    # other write)
    # ------------------------------------------------------------------
    def _raw_write(self, daddr: int, data: bytes) -> Generator:
        cache = self.fs.cache
        yield from self.fs.cpu.compute(self.fs.costs.io_setup * self.fs.costs.scale)
        for _attempt in range(3):
            request = cache.driver.write(daddr * cache.sectors_per_frag,
                                         bytes(data), issuer="journal")
            yield request.done
            if request.error is None:
                return True
            if not is_retryable(request.error):
                return False
        return False

    def _write_header(self, tail_seq: int, tail_pos: int) -> Generator:
        geo = self.fs.geometry
        raw = journal.header_bytes(geo.frag_size, tail_seq, tail_pos)
        result = yield from self._raw_write(geo.journal_start, raw)
        return result
