"""No Order: delayed writes everywhere, ordering ignored.

The paper's performance baseline (and integrity anti-baseline): "This
baseline has the same performance and lack of reliability as the delayed
mount option described in [Ohta90]" and behaves like a memory-based file
system while the cache holds the working set.  A crash can leave directory
entries pointing at uninitialized inodes, blocks shared between files, and
every other violation of the three rules -- the integrity test suite
demonstrates exactly that.
"""

from __future__ import annotations

from typing import Generator

from repro.ordering.base import AllocContext, OrderingScheme
from repro.ordering.guarantees import UNSAFE


class NoOrderScheme(OrderingScheme):
    """Everything is a delayed write; resources are reused immediately."""

    name = "No Order"
    uses_block_copy = True  # delayed writes flush in the background; never
    # stall foreground updates on a write lock
    # ordering rules ignored: a crash may corrupt, leak, and expose stale
    # data all at once -- the exploration engine demonstrates this
    declared_guarantees = UNSAFE

    def link_added(self, dp, dbuf, offset, ip, new_inode: bool) -> Generator:
        ibuf = yield from self._inode_image(ip, dbuf)
        self.fs.cache.bdwrite(ibuf)
        self.fs.cache.bdwrite(dbuf)
        self._bump("ordering.delayed_writes", 2)

    def link_removed(self, dp, dbuf, offset, ip) -> Generator:
        self.fs.cache.bdwrite(dbuf)
        self._bump("ordering.delayed_writes")
        yield from self.fs.drop_link(ip)

    def block_allocated(self, ctx: AllocContext) -> Generator:
        if ctx.ibuf is not None:
            self.fs.cache.bdwrite(ctx.ibuf)
            self._bump("ordering.delayed_writes")
        self.fs.cache.bdwrite(ctx.data_buf)
        self._bump("ordering.delayed_writes")
        if ctx.moved:
            # fragment moved: free the old run right away (unsafe ordering)
            yield from self._free_moved(ctx)

    def truncated(self, ip, runs) -> Generator:
        yield from self.fs.iupdat(ip)            # delayed, unordered
        yield from self.fs.free_block_list(runs)  # reuse immediately

    def release_inode(self, ip) -> Generator:
        runs = yield from self.fs.collect_blocks(ip)
        self.fs.clear_block_pointers(ip)
        yield from self.fs.free_block_list(runs)
        ibuf = yield from self.fs.load_inode_buf(ip.ino)
        ino = ip.ino
        yield from self.fs.free_inode_record(ip)
        # write the cleared dinode (delayed, unordered)
        self.fs.clear_dinode(ino, ibuf)
        self.fs.cache.bdwrite(ibuf)
