"""Conventional: synchronous writes at every ordering point.

The classic FFS discipline: at each of the four structural changes, the
write that *must* reach the disk first is issued synchronously, so the
process waits out a full mechanical disk access before continuing.  The
final write of each sequence is delayed (section 6.1: "the last write in a
series of metadata updates is asynchronous or delayed").

Every ordering edge is one ``_ordered_write(buf, point, *held)`` call, its
*point* the edge's name; Scheduler Flag and the rule-breaking shims are
this scheme with that one method swapped.
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
        yield from self._ordered_write(ibuf, "link_added", dbuf)
        self.fs.cache.bdwrite(dbuf)                # last write: delayed

    def link_removed(self, dp, dbuf, offset, ip) -> Generator:
        # rule 1: the cleared entry reaches disk before the link count drops
        yield from self._ordered_write(dbuf, "link_removed")
        yield from self.fs.drop_link(ip)

    def block_allocated(self, ctx: AllocContext) -> Generator:
        must_init = ctx.is_metadata or self.alloc_init
        moved = ctx.moved
        if moved:
            # rule 2 for fragment extension by move: the relocated pointer
            # reaches disk before the old run can be reused
            ibuf = yield from self._inode_image(ctx.ip, ctx.ibuf,
                                                ctx.data_buf)
            yield from self._ordered_write(ibuf, "frag_move", ctx.ibuf,
                                           ctx.data_buf)
        if ctx.ibuf is not None:
            self.fs.cache.bdwrite(ctx.ibuf)
        if must_init:
            # rule 3: initialize the new block on disk before any pointer
            # to it can land (the pointer writes are delayed, so ordering
            # this write first is sufficient)
            yield from self._ordered_write(ctx.data_buf, "block_init")
        else:
            self.fs.cache.brelse(ctx.data_buf)
        if moved:
            yield from self._free_moved(ctx)

    def truncated(self, ip, runs) -> Generator:
        # rule 2: the reset pointers reach disk before the runs are reused
        ibuf = yield from self._inode_image(ip)
        yield from self._ordered_write(ibuf, "truncate")
        yield from self.fs.free_block_list(runs)

    def release_inode(self, ip) -> Generator:
        # rule 2: nullify every on-disk pointer before the blocks and the
        # inode slot return to the free pool
        runs, ibuf = yield from self._released(ip)
        yield from self._ordered_write(ibuf, "release_inode")
        yield from self.fs.free_block_list(runs)   # bitmaps: delayed
