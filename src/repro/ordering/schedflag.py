"""Scheduler Flag: asynchronous writes carrying the one-bit ordering flag.

Section 3.1: "Write requests that would previously have been synchronous for
ordering purposes are issued asynchronously with their ordering flags set."
The driver's :class:`~repro.driver.ordering.FlagPolicy` gives the flag its
meaning (Full / Back / Part, optionally -NR); this scheme only decides which
writes carry it.  Because the flag constrains every *later-issued* request,
the writes that must land first are issued immediately (flagged) while the
dependent updates stay delayed and are flushed later -- automatically
ordered behind the flagged request.

``semantics`` and ``read_bypass`` build the driver's policy, and the -CB
block-copy enhancement (section 3.3) is ``block_copy``; the defaults are
section 5's headline configuration, Part-NR/CB.
"""

from __future__ import annotations

from typing import Generator

from repro.driver.ordering import FlagPolicy, FlagSemantics
from repro.ordering.base import AllocContext, OrderingScheme
from repro.ordering.guarantees import CrashGuarantees


class SchedulerFlagScheme(OrderingScheme):
    """Asynchronous flagged writes; ordering enforced by the disk scheduler."""

    # flagged writes keep the ordering rules intact end to end; the delayed
    # dependents admit the usual repairable wear
    declared_guarantees = CrashGuarantees(allows_corruption=False)

    def __init__(self, alloc_init: bool = False, block_copy: bool = True,
                 semantics: FlagSemantics = FlagSemantics.PART,
                 read_bypass: bool = True) -> None:
        super().__init__(alloc_init=alloc_init)
        self.uses_block_copy = block_copy
        self.semantics = semantics
        self.read_bypass = read_bypass
        self.name = "Scheduler Flag"

    def driver_policy(self) -> FlagPolicy:
        return FlagPolicy(self.semantics, read_bypass=self.read_bypass)

    def link_added(self, dp, dbuf, offset, ip, new_inode: bool) -> Generator:
        # the inode write is flagged: the (delayed, later-issued) directory
        # block write cannot be scheduled before it
        ibuf = yield from self._inode_image(ip, dbuf)
        self._bump("ordering.flag_tags")
        yield from self.fs.cache.bawrite(ibuf, flag=True)
        self.fs.cache.bdwrite(dbuf)

    def link_removed(self, dp, dbuf, offset, ip) -> Generator:
        # the cleared-entry write is flagged; the inode updates that
        # drop_link issues afterwards are ordered behind it
        self._bump("ordering.flag_tags")
        yield from self.fs.cache.bawrite(dbuf, flag=True)
        yield from self.fs.drop_link(ip)

    def block_allocated(self, ctx: AllocContext) -> Generator:
        must_init = ctx.is_metadata or self.alloc_init
        moved = ctx.moved
        if moved:
            # flagged pointer-update write; any write reusing the old run is
            # issued later and therefore ordered behind it
            yield from self._flush_inode_flagged(ctx.ip)
        if ctx.ibuf is not None:
            self.fs.cache.bdwrite(ctx.ibuf)
        if must_init:
            # rule 3: flagged initialization write (for regular data this is
            # the zero-filled reserved block of section 3.3; the real data
            # arrives with a later write)
            self._bump("ordering.flag_tags")
            yield from self.fs.cache.bawrite(ctx.data_buf, flag=True)
        else:
            self.fs.cache.brelse(ctx.data_buf)
        if moved:
            yield from self._free_moved(ctx)

    def truncated(self, ip, runs) -> Generator:
        # flagged reset write: reusers' writes are issued later (rule 2)
        yield from self._flush_inode_flagged(ip)
        yield from self.fs.free_block_list(runs)

    def release_inode(self, ip) -> Generator:
        runs, ibuf = yield from self._released(ip)
        # flagged reset write: any write that reuses these blocks or this
        # inode slot is issued later and ordered behind it (rule 2)
        self._bump("ordering.flag_tags")
        yield from self.fs.cache.bawrite(ibuf, flag=True)
        yield from self.fs.free_block_list(runs)

    def _flush_inode_flagged(self, ip) -> Generator:
        ibuf = yield from self._inode_image(ip)
        self._bump("ordering.flag_tags")
        yield from self.fs.cache.bawrite(ibuf, flag=True)
