"""Conventional: synchronous writes at every ordering point.

The classic FFS discipline: at each of the four structural changes, the
write that *must* reach the disk first is issued synchronously, so the
process waits out a full mechanical disk access before continuing.  The
final write of each sequence is delayed (section 6.1: "the last write in a
series of metadata updates is asynchronous or delayed").
"""

from __future__ import annotations

from typing import Generator

from repro.ordering.base import AllocContext, OrderingScheme
from repro.ordering.guarantees import CrashGuarantees


class ConventionalScheme(OrderingScheme):
    """Synchronous metadata writes (the paper's baseline implementation)."""

    name = "Conventional"
    uses_block_copy = False  # classic write-lock behaviour
    # synchronous ordering writes: never corrupts; the delayed "last write"
    # of each sequence still admits leaks and link skew until it lands
    declared_guarantees = CrashGuarantees(allows_corruption=False)

    def link_added(self, dp, dbuf, offset, ip, new_inode: bool) -> Generator:
        # rule 3/1: the pointed-to inode reaches disk before the entry
        # (an EIO inside either step must not leave dbuf locked forever)
        ibuf = yield from self._inode_image(ip, dbuf)
        yield from self._release_on_error(self._ordered_wait(  # synchronous
            self.fs.cache.bwrite(ibuf), "sync_stall", point="link_added"),
            dbuf)
        self.fs.cache.bdwrite(dbuf)                # last write: delayed

    def link_removed(self, dp, dbuf, offset, ip) -> Generator:
        # rule 1: the cleared entry reaches disk before the link count drops
        yield from self._ordered_wait(             # synchronous
            self.fs.cache.bwrite(dbuf), "sync_stall", point="link_removed")
        yield from self.fs.drop_link(ip)

    def block_allocated(self, ctx: AllocContext) -> Generator:
        must_init = ctx.is_metadata or self.alloc_init
        moved = ctx.moved
        if moved:
            # rule 2 for fragment extension by move: the relocated pointer
            # reaches disk before the old run can be reused
            yield from self._release_on_error(self._ordered_wait(
                self.fs.flush_inode_sync(ctx.ip), "sync_stall",
                point="frag_move"), ctx.ibuf, ctx.data_buf)
        if ctx.ibuf is not None:
            self.fs.cache.bdwrite(ctx.ibuf)
        if must_init:
            # rule 3: initialize the new block on disk before any pointer
            # to it can land (the pointer writes are delayed, so completing
            # this synchronous write first is sufficient)
            yield from self._ordered_wait(
                self.fs.cache.bwrite(ctx.data_buf), "sync_stall",
                point="block_init")
        else:
            self.fs.cache.brelse(ctx.data_buf)
        if moved:
            yield from self._free_moved(ctx)

    def release_inode(self, ip) -> Generator:
        # rule 2: nullify every on-disk pointer (synchronously) before the
        # blocks and the inode slot return to the free pool
        runs, ibuf = yield from self._released(ip)
        yield from self._ordered_wait(             # synchronous reset
            self.fs.cache.bwrite(ibuf), "sync_stall", point="release_inode")
        yield from self.fs.free_block_list(runs)   # bitmaps: delayed
