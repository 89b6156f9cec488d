"""The buffer cache: getblk/bread/bwrite and friends.

Addressing: ``daddr`` is a *fragment* number (FFS disk addresses); a buffer
covers ``size`` bytes = a whole number of fragments.  The cache maps a daddr
to at most one buffer, and the file system guarantees (by invalidating on
deallocation) that live buffers never overlap.

Acquisition: ``getblk`` and ``bread`` share one acquisition path,
``_acquire``, which waits out a busy buffer, grows a fragment run in place
or reclaims room for a miss.  ``bread``, the hot one, takes an uncontended
same-size hit itself, so its hit is one generator and nests no
``getblk``.  ``brelse`` is the one release (I/O completion drops a write's
hold through it too) and wakes the buffer's sleepers only when it has
some.

Write mechanics (the mounted scheme's choice) and the section 3.3 write lock:

* ``uses_block_copy`` false (classic): issuing a disk write holds the buffer
  ``busy`` until the media operation completes, so any process updating that
  metadata again stalls for the full disk access -- the behaviour the paper
  measures as "processes still wait for them in many cases".
* ``uses_block_copy`` true (the -CB enhancement): the write request carries
  an in-memory copy of the block, the buffer is released at issue time, and
  the only cost is a kernel memcpy (charged to the issuing process).

In both modes the written image is snapshotted at issue time and handed to
the scheme's ``write_starting`` (soft updates' undo); its ``write_done``
runs at completion.  Like FreeBSD's ``bioops``, both see every write.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Generator, Optional

from repro.costs import CostModel
from repro.driver.driver import DeviceDriver
from repro.driver.request import DiskRequest
from repro.faults import MediaError, is_retryable
from repro.sim.cpu import CPU
from repro.sim.engine import Engine
from repro.sim.primitives import WaitQueue
from repro.cache.buffer import Buffer

if TYPE_CHECKING:
    from repro.ordering.base import OrderingScheme


class BufferCache:
    """Fixed-capacity cache of disk buffers with LRU replacement."""

    def __init__(self, engine: Engine, driver: DeviceDriver, cpu: CPU,
                 costs: CostModel, scheme: "OrderingScheme",
                 frag_size: int = 1024,
                 capacity_bytes: int = 8 * 1024 * 1024) -> None:
        sector = driver.disk.geometry.sector_size
        if frag_size % sector != 0:
            raise ValueError("fragment size must be a multiple of the sector size")
        self.engine = engine
        self.driver = driver
        self.cpu = cpu
        self.costs = costs
        self.frag_size = frag_size
        self.sectors_per_frag = frag_size // sector
        self.capacity_bytes = capacity_bytes
        self.scheme = scheme
        self.block_copy = scheme.uses_block_copy
        self._buffers: dict[int, Buffer] = {}
        self._lru: OrderedDict[int, Buffer] = OrderedDict()
        self.used_bytes = 0
        #: bytes held by in-flight write snapshots (the -CB copies of
        #: section 3.3 are real memory; unbounded queues of them are what
        #: throttled the paper's machine when activity exceeded its 44 MB)
        self.inflight_bytes = 0
        self._space = WaitQueue(engine)
        # instrumentation
        self.hits = 0
        self.misses = 0
        self.flushes_forced = 0
        #: getblk calls that slept on a locked buffer (section 3.3), and the
        #: seconds they slept; counted when the buffer is finally acquired
        self.lock_waits = 0
        self.lock_wait_time = 0.0
        #: times an allocation slept waiting for reclaim to make room
        self.reclaim_waits = 0
        # fault bookkeeping: reads that surfaced EIO, failed writes that were
        # re-dirtied for retry, and writes lost for good ((daddr, code, time))
        self.read_errors = 0
        self.write_retries = 0
        self.lost_writes: list[tuple[int, str, float]] = []
        self._tracer = engine.tracer

    # -- address helpers ---------------------------------------------------
    def _lbn(self, daddr: int) -> int:
        return daddr * self.sectors_per_frag

    # -- acquisition ---------------------------------------------------------
    def getblk(self, daddr: int, size: int) -> Generator:
        """Acquire the buffer for ``size`` bytes at fragment *daddr* (locked).

        The returned buffer may be invalid (contents undefined); use
        :meth:`bread` when existing disk contents are needed.  Subroutine:
        call with ``yield from``.
        """
        if size <= 0 or size % self.frag_size != 0:
            raise ValueError(f"buffer size {size} is not a whole fragment count")
        costs = self.costs
        yield from self.cpu.compute(costs.getblk * costs.scale)
        buf = yield from self._acquire(daddr, size)
        return buf

    def bread(self, daddr: int, size: int) -> Generator:
        """Acquire the buffer and ensure it holds the disk contents.

        The same acquisition as :meth:`getblk`, then a disk read when the
        buffer is not valid.
        """
        if size <= 0 or size % self.frag_size != 0:
            raise ValueError(f"buffer size {size} is not a whole fragment count")
        costs = self.costs
        yield from self.cpu.compute(costs.getblk * costs.scale)
        buf = self._buffers.get(daddr)
        if buf is not None and not buf.busy and buf.size == size:
            # an uncontended same-size hit, taken here: what _acquire does
            # on its first pass when nothing blocks
            buf.busy = True
            process = self.engine.current_process
            buf.owner = process.name if process is not None else "?"
            self._lru.pop(daddr, None)
            self.hits += 1
        else:
            buf = yield from self._acquire(daddr, size)
        if buf.valid:
            return buf
        tracer = self._tracer
        span = tracer.begin("cache.read_miss", "cache",
                            args={"daddr": daddr}) \
            if tracer is not None else None
        yield from self.cpu.compute(costs.io_setup * costs.scale)
        nsectors = (size // self.frag_size) * self.sectors_per_frag
        request = self.driver.read(self._lbn(daddr), nsectors,
                                   issuer=self._issuer())
        yield request.done
        if request.error is not None:
            # the driver's retries are spent and the sector is gone:
            # this is where a UNIX process gets EIO from the kernel
            self.read_errors += 1
            faults = self.driver.disk.faults
            if faults is not None:
                faults.log(self.engine.now, "read_eio",
                           f"daddr={daddr} ({request.error})")
            if span is not None:
                tracer.end(span)
            self.brelse(buf)
            raise MediaError(daddr, f"read failed ({request.error})")
        buf.fill(self.driver.disk.storage.read(
            self._lbn(daddr), size // self.frag_size * self.sectors_per_frag))
        if span is not None:
            tracer.end(span)
        return buf

    def _acquire(self, daddr: int, size: int) -> Generator:
        """Take the buffer for :meth:`getblk` and :meth:`bread`; returns it
        held.

        Waits out a busy buffer, grows a fragment run in place, or reclaims
        room for a fresh buffer.
        """
        # lock-wait accounting is opened lazily on the first sleep and closed
        # once the buffer is acquired; the loop structure (and therefore
        # every wakeup and timestamp) is identical with tracing off
        tracer = self._tracer
        wait_span = None
        wait_start = None
        while True:
            buf = self._buffers.get(daddr)
            if buf is not None:
                if buf.busy:
                    if wait_start is None:
                        wait_start = self.engine.now
                        if tracer is not None:
                            wait_span = tracer.begin(
                                "cache.lock_wait", "cache",
                                args={"daddr": daddr, "owner": buf.owner})
                    yield buf.waitq.wait()
                    continue
                if size > buf.size:
                    # fragment extension in place: grow with zeros
                    self.used_bytes += size - buf.size
                    buf.data.extend(bytes(size - buf.size))
                    buf.size = size
                    buf.data_replaced()
                elif size < buf.size:
                    raise RuntimeError(
                        f"getblk({daddr}, {size}) found a larger live buffer "
                        f"({buf.size} bytes); missing invalidation?")
                self.hits += 1
                break
            yield from self._reclaim(size)
            if daddr in self._buffers:
                continue  # someone else created it while we slept
            buf = Buffer(self.engine, daddr, size)
            self._buffers[daddr] = buf
            self.used_bytes += size
            self.misses += 1
            break
        buf.busy = True
        process = self.engine.current_process
        buf.owner = process.name if process is not None else "?"
        self._lru.pop(daddr, None)
        if wait_start is not None:
            self.lock_waits += 1
            self.lock_wait_time += self.engine.now - wait_start
            if wait_span is not None:
                tracer.end(wait_span)
        return buf

    def peek(self, daddr: int) -> Optional[Buffer]:
        """Non-blocking lookup (no lock taken); None if absent."""
        return self._buffers.get(daddr)

    # -- release paths ------------------------------------------------------
    def brelse(self, buf: Buffer) -> None:
        """Release a held buffer without scheduling a write.

        Also how the cache drops the hold an I/O took (like ``biodone``):
        the buffer goes to the LRU tail and its sleepers, if any, wake.
        """
        buf.busy = False
        buf.owner = ""
        buf.last_release = self.engine.now
        daddr = buf.daddr
        if daddr in self._buffers:
            lru = self._lru
            lru[daddr] = buf
            lru.move_to_end(daddr)
        waitq = buf.waitq
        if waitq.waiters:
            waitq.broadcast()

    def bdwrite(self, buf: Buffer) -> None:
        """Delayed write: mark dirty, release; the syncer flushes it later."""
        buf.mark_dirty(self.engine.now)
        buf.valid = True
        self.brelse(buf)

    def bawrite(self, buf: Buffer, flag: bool = False) -> Generator:
        """Asynchronous write: issue now, do not wait.  Returns the request.

        Consumes the caller's hold on the buffer: with block copy the buffer
        is released immediately; without it the buffer stays busy until the
        media write completes (the section 3.3 write lock).
        """
        if self.block_copy:
            yield from self.cpu.compute(self.costs.block_copy(buf.size))
        costs = self.costs
        yield from self.cpu.compute(costs.io_setup * costs.scale)
        return self._issue_write(buf, flag)

    def bwrite(self, buf: Buffer) -> Generator:
        """Synchronous write: issue and wait for completion."""
        if self.block_copy:
            yield from self.cpu.compute(self.costs.block_copy(buf.size))
        costs = self.costs
        yield from self.cpu.compute(costs.io_setup * costs.scale)
        tracer = self._tracer
        span = tracer.begin("cache.write_wait", "cache",
                            args={"daddr": buf.daddr}) \
            if tracer is not None else None
        request = self._issue_write(buf, flag=False)
        yield request.done
        if span is not None:
            tracer.end(span)
        if request.error is not None and not is_retryable(request.error):
            # the synchronous write is permanently lost: the blocked syscall
            # gets EIO, like bwrite's B_ERROR path.  (A *retryable* failure
            # re-dirtied the buffer in _write_done; the syncer will carry it
            # the rest of the way, so the caller is not failed for it.)
            faults = self.driver.disk.faults
            if faults is not None:
                faults.log(self.engine.now, "sync_write_failed",
                           f"daddr={buf.daddr} ({request.error})")
            raise MediaError(buf.daddr, f"write failed ({request.error})")
        return request

    def start_flush(self, buf: Buffer) -> Optional[DiskRequest]:
        """Background flush of an idle dirty buffer (syncer / reclaim path).

        Returns None if the buffer is not flushable right now (busy, already
        being written, or not dirty).
        """
        if buf.busy or buf.write_outstanding or not buf.dirty or not buf.valid:
            return None
        if not self.block_copy:
            buf.busy = True
            buf.owner = "flush"
        return self._issue_write(buf, flag=False, from_flush=True)

    # -- write plumbing -------------------------------------------------------
    def _issue_write(self, buf: Buffer, flag: bool,
                     from_flush: bool = False) -> DiskRequest:
        image = bytearray(buf.data)
        deps = buf.flush_deps
        buf.flush_deps = set()
        self.scheme.write_starting(buf, image, deps)
        buf.dirty = False
        buf.marked = False
        buf.valid = True
        buf.write_outstanding = True
        request = self.driver.write(self._lbn(buf.daddr), bytes(image),
                                    flag=flag,
                                    depends_on=frozenset(deps) if deps else None,
                                    issuer=self._issuer() if not from_flush
                                    else "syncer")
        if self.block_copy:
            # the write's source is a kernel copy; charge it to memory until
            # the media operation completes (without -CB the locked buffer
            # itself is the source, already accounted in used_bytes)
            nbytes = len(image)
            self.inflight_bytes += nbytes
            request.on_complete.append(
                lambda _req, n=nbytes: self._copy_released(n))
        request.on_complete.append(lambda req, b=buf: self._write_done(b, req))
        if self.block_copy and not from_flush:
            self.brelse(buf)
        return request

    def _write_done(self, buf: Buffer, request: DiskRequest) -> None:
        """I/O completion (driver context; must not block).

        A failed write sets ``buf.error`` (B_ERROR) before the scheme's
        ``write_done`` runs, so soft updates can refuse to retire the
        dependencies riding on it.  Retryable failures re-dirty the buffer
        *first* -- the data in memory is still newer than disk and the
        syncer must write it again (and NVRAM must keep its mirror);
        non-retryable failures are recorded as lost writes.
        """
        buf.write_outstanding = False
        error = request.error
        buf.error = error
        if error is not None:
            if is_retryable(error) and buf.valid:
                self.write_retries += 1
                buf.mark_dirty(self.engine.now)
                faults = self.driver.disk.faults
                if faults is not None:
                    faults.log(self.engine.now, "redirty",
                               f"daddr={buf.daddr} ({error})")
            elif not is_retryable(error):
                self.lost_writes.append((buf.daddr, error, self.engine.now))
                faults = self.driver.disk.faults
                if faults is not None:
                    faults.log(self.engine.now, "lost_write",
                               f"daddr={buf.daddr} ({error})")
        self.scheme.write_done(buf)
        if buf.busy and buf.owner in ("io", "flush"):
            self.brelse(buf)
        elif not self.block_copy and buf.busy:
            # non-CB foreground write: the lock was transferred to the I/O
            self.brelse(buf)
        self._space.broadcast()

    # -- invalidation (deallocation support) -----------------------------------
    def invalidate(self, daddr: int, frags: int) -> None:
        """Drop buffers inside a freed fragment range; cancels delayed writes.

        Buffers with a write already outstanding keep their identity until
        the write lands (the driver's write extent index orders any reuse
        after it), but are marked invalid so nobody trusts their contents.
        """
        for fragment in range(daddr, daddr + frags):
            buf = self._buffers.get(fragment)
            if buf is None:
                continue
            buf.dirty = False
            buf.valid = False
            buf.marked = False
            buf.data_replaced()
            if not buf.busy and not buf.write_outstanding and buf.hold_count == 0:
                self._evict(buf)

    # -- reclamation -----------------------------------------------------------
    def _copy_released(self, nbytes: int) -> None:
        self.inflight_bytes -= nbytes
        self._space.broadcast()

    def _reclaim(self, need: int) -> Generator:
        """Make room for *need* bytes, evicting or flushing as required."""
        while self.used_bytes + self.inflight_bytes + need > self.capacity_bytes:
            victim = self._find_clean_victim()
            if victim is not None:
                self._evict(victim)
                continue
            started = 0
            for buf in list(self._lru.values()):
                if self.start_flush(buf) is not None:
                    started += 1
                    self.flushes_forced += 1
                    if started >= 16:
                        break
            self.reclaim_waits += 1
            yield self._space.wait()
        return None

    def _find_clean_victim(self) -> Optional[Buffer]:
        for buf in self._lru.values():
            if (not buf.dirty and not buf.busy and not buf.write_outstanding
                    and buf.hold_count == 0 and not buf.flush_deps):
                return buf
        return None

    def _evict(self, buf: Buffer) -> None:
        del self._buffers[buf.daddr]
        self._lru.pop(buf.daddr, None)
        self.used_bytes -= buf.size
        buf.valid = False
        self._space.broadcast()

    # -- sync ------------------------------------------------------------------
    def dirty_buffers(self) -> list[Buffer]:
        """All currently dirty buffers (snapshot)."""
        return [buf for buf in self._buffers.values() if buf.dirty]

    def sync(self) -> Generator:
        """Flush everything and wait for the driver to drain.

        Repeats until no dirty buffers remain, because completion processing
        (soft updates) may re-dirty buffers or schedule further writes.
        """
        for _round in range(1000):
            dirty = [buf for buf in self._buffers.values()
                     if buf.dirty and not buf.write_outstanding]
            if not dirty and self.driver.idle:
                return
            for buf in dirty:
                if buf.busy:
                    while buf.busy:
                        yield buf.waitq.wait()
                self.start_flush(buf)
            yield from self.driver.drain()
            yield self.engine.timeout(0.0)
        raise RuntimeError("sync() failed to converge after 1000 rounds")

    def _issuer(self) -> str:
        process = self.engine.current_process
        return process.name if process is not None else "?"
