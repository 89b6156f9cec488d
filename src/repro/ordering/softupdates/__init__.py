"""Soft updates: delayed metadata writes with fine-grained dependencies.

The paper's contribution (section 4.2 + appendix).  All four structural
changes use delayed writes:

* block allocation and link addition use undo/redo rollback -- a block with
  pending dependencies can be written at any time, with the not-yet-safe
  updates temporarily undone in the written image;
* block deallocation and link removal are *deferred* -- the freeing of
  resources (bitmap bits, link counts) waits until the reset pointers have
  reached stable storage, driven by the workitem queue.

The result: metadata updates proceed at memory speed, multiple updates to
one block aggregate into one disk write, and a create-then-remove pair can
complete with no disk I/O at all -- while every crash state remains
fsck-consistent (the integrity suite verifies this).
"""

from __future__ import annotations

from typing import Generator

from repro.fs.layout import Dinode
from repro.ordering.base import AllocContext, OrderingScheme
from repro.ordering.guarantees import CrashGuarantees
from repro.ordering.softupdates.manager import SoftDepManager


class SoftUpdatesScheme(OrderingScheme):
    """The soft updates implementation."""

    name = "Soft Updates"
    uses_block_copy = True  # the separate write source is inherent to the
    # design (the paper's in-core inode / safe-copy indirection)
    # deferred deallocation means a crash may leak blocks/inodes and leave
    # link counts high, but rollback keeps every image free of corruption
    declared_guarantees = CrashGuarantees(allows_corruption=False)

    def __init__(self, alloc_init: bool = True) -> None:
        # allocation initialization is enforced by default: with soft
        # updates it is nearly free (tables 1 and 3 note "Allocation
        # initialization was enforced only for Soft Updates")
        super().__init__(alloc_init=alloc_init)
        self.manager: SoftDepManager = None

    def attach(self, fs) -> None:
        super().attach(fs)
        self.manager = SoftDepManager(fs)

    def detach(self, fs) -> None:
        if self.fs is fs:
            self.manager = None
        super().detach(fs)

    def write_starting(self, buf, image, deps) -> None:
        self.manager.write_starting(buf, image)

    def write_done(self, buf) -> None:
        self.manager.write_done(buf)

    # ------------------------------------------------------------------
    def link_added(self, dp, dbuf, offset, ip, new_inode: bool) -> Generator:
        ibuf = yield from self._inode_image(ip, dbuf)
        offset_in_block = offset % self.fs.geometry.block_size
        self.manager.record_add(dbuf, offset_in_block, ip, ibuf)
        self.fs.cache.bdwrite(ibuf)
        self.fs.cache.bdwrite(dbuf)

    def dotdot_link_added(self, dp, child_buf, offset) -> Generator:
        # '..' points at an already-initialized inode; no rollback dependency
        # is registered (the transient link-count undercount is a mechanical
        # fsck repair).  Rolling '..' back would instead expose reachable
        # directories without their dot entries, which fsck cannot repair.
        yield from self.inode_updated(dp)
        self.fs.cache.bdwrite(child_buf)

    def link_removed(self, dp, dbuf, offset, ip) -> Generator:
        offset_in_block = offset % self.fs.geometry.block_size
        cancelled = self.manager.record_remove(dbuf, offset_in_block, ip)
        self.fs.cache.bdwrite(dbuf)
        if cancelled:
            # add + remove serviced with no disk writes at all
            yield from self.fs.drop_link(ip)
        # otherwise: drop_link runs from the workitem queue once the
        # directory block reaches stable storage

    def block_allocated(self, ctx: AllocContext) -> Generator:
        moved = ctx.moved
        # deallocation ordering (rule 2, the fragment-move case) is always
        # enforced; only *initialization* tracking is optional
        track_needed = ctx.is_metadata or self.alloc_init or moved
        if not track_needed:
            if ctx.ibuf is not None:
                self.fs.cache.bdwrite(ctx.ibuf)
            self.fs.cache.bdwrite(ctx.data_buf)
            return
        old_size = None
        if ctx.owner_kind == "inode" and 0 <= ctx.slot < 12:
            # rolling back this pointer also rolls the length back to what
            # the file held before this block/fragment was attached
            old_size = min(ctx.ip.din.size,
                           ctx.lblk * self.fs.geometry.block_size
                           + ctx.old_frags * self.fs.geometry.frag_size)
        if ctx.owner_kind == "inode":
            owner_buf = yield from self.fs.load_inode_buf(ctx.ip.ino)
        else:
            owner_buf = ctx.ibuf
        dep = self.manager.record_alloc(
            ctx.ip, owner_buf, ctx.owner_kind, ctx.slot, ctx.new_daddr,
            old_daddr=ctx.old_daddr, old_size=old_size,
            data_buf=ctx.data_buf)
        if moved:
            # the old run is freed only after the new pointer is safely on
            # disk ("we do not consider the inode appropriately 'modified'
            # until the allocdirect dependency clears")
            dep.free_on_clear.append((ctx.old_daddr, ctx.old_frags))
            self.fs.cache.invalidate(ctx.old_daddr, ctx.old_frags)
        if ctx.owner_kind == "inode":
            self.manager.track(owner_buf)
            self.fs.store_inode(ctx.ip, owner_buf)
            self.fs.cache.bdwrite(owner_buf)
        else:
            self.fs.cache.bdwrite(owner_buf)
        self.fs.cache.bdwrite(ctx.data_buf)
        yield from self.fs.cpu.compute(self.fs.costs.softdep * 2 * self.fs.costs.scale)

    def truncated(self, ip, runs) -> Generator:
        extra = self.manager.cancel_for_truncate(ip, runs)
        runs = list(runs) + extra
        ibuf = yield from self._inode_image(ip)
        # the bitmap bits clear only after the reset pointers are written
        self.manager.record_free(ip, ibuf, runs, ino=None)
        self.fs.cache.bdwrite(ibuf)
        yield from self.fs.cpu.compute(self.fs.costs.softdep * self.fs.costs.scale)

    def release_inode(self, ip) -> Generator:
        runs = yield from self.fs.collect_blocks(ip)
        extra = self.manager.cancel_for_release(ip, runs)
        runs = list(runs) + extra
        self.fs.clear_block_pointers(ip)
        ino = ip.ino
        ip.din = Dinode()
        ip.deleted = True
        self.fs.itable.drop(ino)
        # cancel pending delayed writes of the dead file's blocks: this is
        # where the order-of-magnitude I/O reduction of table 2 comes from
        for daddr, frags in runs:
            self.fs.cache.invalidate(daddr, frags)
        ibuf = yield from self.fs.load_inode_buf(ino)
        self.fs.clear_dinode(ino, ibuf)
        # the bitmap bits clear only after this reset write completes
        self.manager.record_free(ip, ibuf, runs, ino)
        self.fs.cache.bdwrite(ibuf)
        yield from self.fs.cpu.compute(self.fs.costs.softdep * self.fs.costs.scale)

    # ------------------------------------------------------------------
    def inode_updated(self, ip) -> Generator:
        ibuf = yield from self.fs.load_inode_buf(ip.ino)
        self.fs.store_inode(ip, ibuf)
        self.manager.track_inode_buffer(ip, ibuf)
        self.fs.cache.bdwrite(ibuf)

    def fsync(self, ip) -> Generator:
        """SYNCIO: push this inode's whole dependency chain to disk."""
        for _ in range(1000):
            if not self.manager.inode_busy(ip.ino):
                ibuf = yield from self._inode_image(ip)
                yield from self.fs.cache.bwrite(ibuf)
                if not self.manager.inode_busy(ip.ino):
                    return
                continue
            yield from self.manager.service()
            yield from self.fs.cache.sync()
        raise RuntimeError("fsync did not converge")

    def drain(self) -> Generator:
        yield from self.manager.drain()

    def pending_work(self) -> int:
        return self.manager.pending()
