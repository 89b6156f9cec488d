"""NVRAM-backed metadata (section 7's proposed comparison point).

"NVRAM can greatly increase data persistence and provide slight performance
improvements as compared to soft updates (by reducing syncer daemon
activity), but is very expensive."

Model: every structural metadata update -- inodes, directory blocks,
indirect blocks, and the cylinder-group headers of frees -- is mirrored,
atomically and instantly, into a battery-backed store that survives power
failure.  No write ordering is needed for structural soundness, and the
dirty blocks destage to the disk lazily through the normal syncer path,
dropping their NVRAM copy once the disk catches up (or the block is
freed).  Crash recovery replays the surviving NVRAM over the disk image:
every store and drop is said once, to the ``on_survivor`` observer, and
the crash-image synthesizer replays that stream (the test suite's live
oracle reads ``_mirror`` itself).

What recovery sees is never corrupt, but it is not always the latest
metadata: an allocation dirties its cylinder-group header and neither
``link_added`` nor ``block_allocated`` mirrors it, so a crash before that
header destages leaves in-use inodes and fragments marked free -- the
repairable ``bitmap-stale`` wear fsck fixes, within the declaration.

The capacity limit is what makes NVRAM "very expensive": when the store is
full, a metadata update must wait for a destage, so an under-provisioned
NVRAM degrades toward the conventional scheme.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generator

from repro.ordering.base import AllocContext, OrderingScheme
from repro.ordering.guarantees import CrashGuarantees


class NvramScheme(OrderingScheme):
    """Delayed writes with an NVRAM mirror of all metadata updates."""

    # the replayed mirror keeps the image free of corruption; allocation
    # bitmaps may lag (headers of allocations are not mirrored, see the
    # module docstring) and the data-block stale-data hole stays open
    # (metadata-only NVRAM, see below): repairable wear, both declared
    declared_guarantees = CrashGuarantees(allows_corruption=False)

    name = "NVRAM"
    uses_block_copy = True
    # metadata-only NVRAM cannot order *data* initialization (the data bytes
    # never pass through it), so the stale-data hole of section 1 stays open
    # unless data blocks are journaled too -- one reason the paper's authors
    # still prefer soft updates
    alloc_init = False

    def __init__(self, capacity_bytes: int = 4 * 1024 * 1024,
                 store_cost_per_byte: float = 0.02e-6) -> None:
        super().__init__()
        self.capacity_bytes = capacity_bytes
        self.store_cost_per_byte = store_cost_per_byte
        #: daddr -> latest metadata bytes not yet destaged (insertion order)
        self._mirror: OrderedDict[int, bytes] = OrderedDict()
        self.used_bytes = 0
        self.stores = 0
        self.destage_stalls = 0

    # ------------------------------------------------------------------
    def _mirror_buffer(self, buf) -> Generator:
        """Copy the buffer's current bytes into NVRAM (may stall if full)."""
        while (self.used_bytes + buf.size > self.capacity_bytes
               and buf.daddr not in self._mirror):
            oldest = self._destage_victim()
            if oldest is None:
                # every mirrored block is one this operation holds: they
                # stay until it releases them, over capacity meanwhile
                break
            # force a destage of the oldest mirrored block and wait for it
            self.destage_stalls += 1
            victim = self.fs.cache.peek(oldest)
            if victim is not None and victim.dirty:
                request = self.fs.cache.start_flush(victim)
                if request is not None:
                    yield request.done
                    continue
                while victim.busy or victim.write_outstanding:
                    yield victim.waitq.wait()
                continue
            # block already clean on disk: its mirror entry is stale
            self._drop(oldest)
        previous = self._mirror.pop(buf.daddr, None)
        if previous is not None:
            self.used_bytes -= len(previous)
        self._mirror[buf.daddr] = bytes(buf.data)
        self.used_bytes += buf.size
        self.stores += 1
        self._survivor_changed(buf.daddr, self._mirror[buf.daddr])
        yield from self.fs.cpu.compute(
            self.store_cost_per_byte * buf.size * self.fs.costs.scale)

    def _destage_victim(self):
        """The oldest mirrored block the calling process does not hold.

        A held block cannot be destaged until its holder releases it, and
        the holder is waiting here: ``link_added`` mirrors ``ibuf`` and
        then ``dbuf`` with both held.
        """
        caller = self.fs.engine.current_process.name
        for daddr in self._mirror:
            held = self.fs.cache.peek(daddr)
            if held is None or not held.busy or held.owner != caller:
                return daddr
        return None

    def write_done(self, buf) -> None:
        """Disk caught up with this block: the NVRAM copy can be dropped.

        Only when the buffer is clean: a completed write may carry an older
        snapshot than the mirror (the block was updated again after the
        flush was issued), and dropping then would lose the newer state.
        """
        if not buf.dirty and not buf.write_outstanding:
            self._drop(buf.daddr)

    def _forget(self, runs) -> None:
        """Drop the mirror of *runs* about to be freed: recovery must not
        replay their dead bytes over the blocks' next owner."""
        for daddr, _frags in runs:
            self._drop(daddr)

    def _drop(self, daddr: int) -> None:
        data = self._mirror.pop(daddr, None)
        if data is not None:
            self.used_bytes -= len(data)
            self._survivor_changed(daddr, None)

    def _survivor_changed(self, daddr: int, data) -> None:
        if self.on_survivor is not None:
            self.on_survivor(daddr * self.fs.cache.sectors_per_frag, data)

    # -- the four structural changes ---------------------------------------
    def link_added(self, dp, dbuf, offset, ip, new_inode: bool) -> Generator:
        ibuf = yield from self._inode_image(ip, dbuf)
        yield from self._mirror_buffer(ibuf)
        yield from self._mirror_buffer(dbuf)
        self.fs.cache.bdwrite(ibuf)
        self.fs.cache.bdwrite(dbuf)

    def link_removed(self, dp, dbuf, offset, ip) -> Generator:
        yield from self._mirror_buffer(dbuf)
        self.fs.cache.bdwrite(dbuf)
        yield from self.fs.drop_link(ip)

    def block_allocated(self, ctx: AllocContext) -> Generator:
        if ctx.is_metadata:
            yield from self._mirror_buffer(ctx.data_buf)
        if ctx.ibuf is not None:
            yield from self._mirror_buffer(ctx.ibuf)
            self.fs.cache.bdwrite(ctx.ibuf)
        self.fs.cache.bdwrite(ctx.data_buf)
        if ctx.moved:
            yield from self._free_moved(ctx)
            yield from self._mirror_cg_of(ctx.old_daddr)

    def release_inode(self, ip) -> Generator:
        runs, ibuf = yield from self._released(ip)
        yield from self._mirror_buffer(ibuf)
        self.fs.cache.bdwrite(ibuf)
        self._forget(runs)
        yield from self.fs.free_block_list(runs)
        for daddr, _frags in runs:
            yield from self._mirror_cg_of(daddr)
        yield from self._mirror_cg_of_inode(ip.ino)

    def truncated(self, ip, runs) -> Generator:
        ibuf = yield from self._inode_image(ip)
        yield from self._mirror_buffer(ibuf)
        self.fs.cache.bdwrite(ibuf)
        self._forget(runs)
        yield from self.fs.free_block_list(runs)
        for daddr, _frags in runs:
            yield from self._mirror_cg_of(daddr)

    # -- unordered updates also mirrored (the NVRAM holds ALL metadata) ----
    def inode_updated(self, ip) -> Generator:
        ibuf = yield from self.fs.load_inode_buf(ip.ino)
        self.fs.store_inode(ip, ibuf)
        yield from self._mirror_buffer(ibuf)
        self.fs.cache.bdwrite(ibuf)

    def _mirror_cg_of(self, daddr: int) -> Generator:
        cg = self.fs.geometry.cg_of_daddr(daddr)
        yield from self._mirror_cg(cg)

    def _mirror_cg_of_inode(self, ino: int) -> Generator:
        yield from self._mirror_cg(self.fs.geometry.cg_of_inode(ino))

    def _mirror_cg(self, cg: int) -> Generator:
        buf = yield from self.fs.cache.bread(self.fs.geometry.cg_base(cg),
                                             self.fs.geometry.block_size)
        yield from self._mirror_buffer(buf)
        self.fs.cache.brelse(buf)
