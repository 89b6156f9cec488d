"""Scheduler Chains: asynchronous writes with explicit dependency lists.

Section 3.2: each disk request carries "a list of requests on which it
depends", avoiding the false dependencies of the one-bit flag.  A new
request may only depend on previously issued requests, so the antecedent of
every ordering pair is issued (asynchronously) at update time; the dependent
update can stay delayed, with the requirement recorded on its buffer
(``Buffer.flush_deps``) and attached whenever the buffer is finally written.

Block deallocation (the tricky case the paper discusses) supports both
approaches compared in section 3.2:

* ``dealloc_barrier=False`` (default, the better performer): freed blocks
  and inode slots are remembered until the pointer-reset write completes;
  reallocating one makes the new owner's first write depend on the reset.
* ``dealloc_barrier=True``: the reset write acts as a Part-NR-style barrier
  -- every subsequently issued write depends on it (the simpler, slower
  fallback; benchmarked by the A1 ablation).
"""

from __future__ import annotations

from typing import Generator

from repro.driver.ordering import ChainsPolicy
from repro.ordering.base import AllocContext, OrderingScheme
from repro.ordering.guarantees import CrashGuarantees


class SchedulerChainsScheme(OrderingScheme):
    """Per-request dependency lists enforced by the disk scheduler."""

    # explicit dependency chains uphold all three rules without the flag's
    # false dependencies; repairable wear is still possible
    declared_guarantees = CrashGuarantees(allows_corruption=False)

    def __init__(self, alloc_init: bool = False, block_copy: bool = True,
                 dealloc_barrier: bool = False) -> None:
        super().__init__(alloc_init=alloc_init)
        self.uses_block_copy = block_copy
        self.dealloc_barrier = dealloc_barrier
        self.name = "Scheduler Chains"
        # recently freed resources -> the reset request they wait for
        self._freed_frags: dict[int, int] = {}     # daddr -> request id
        self._freed_inodes: dict[int, int] = {}    # ino -> request id
        self._barriers: set[int] = set()

    def driver_policy(self) -> ChainsPolicy:
        return ChainsPolicy()

    def write_starting(self, buf, image, deps) -> None:
        deps |= self._barriers  # empty unless ``dealloc_barrier``

    # -- the four structural changes --------------------------------------
    def link_added(self, dp, dbuf, offset, ip, new_inode: bool) -> Generator:
        ibuf = yield from self._inode_image(ip, dbuf)
        if new_inode:
            self._inherit_freed_inode(ip.ino, ibuf)
        request = yield from self.fs.cache.bawrite(ibuf)
        # the directory block's eventual write depends on the inode write
        dbuf.flush_deps.add(request.id)
        self._bump("ordering.chain_links")
        self.fs.cache.bdwrite(dbuf)

    def link_removed(self, dp, dbuf, offset, ip) -> Generator:
        request = yield from self.fs.cache.bawrite(dbuf)
        # the inode's next write (link count drop / reset) depends on it
        ibuf = yield from self.fs.load_inode_buf(ip.ino)
        ibuf.flush_deps.add(request.id)
        self._bump("ordering.chain_links")
        self.fs.cache.brelse(ibuf)
        yield from self.fs.drop_link(ip)

    def block_allocated(self, ctx: AllocContext) -> Generator:
        must_init = ctx.is_metadata or self.alloc_init
        moved = ctx.moved
        # reallocation of recently freed fragments: "the new owner (inode or
        # indirect block) becomes dependent on the write of the old owner.
        # In fact, we make the newly allocated block itself dependent"
        pending_resets = {self._freed_frags[fragment]
                          for fragment in range(ctx.new_daddr,
                                                ctx.new_daddr + ctx.new_frags)
                          if fragment in self._freed_frags}
        ctx.data_buf.flush_deps |= pending_resets
        self._bump("ordering.chain_links", len(pending_resets))
        if moved:
            # issue the pointer update now so the old run's reuse can name it
            ibuf2 = yield from self._inode_image(ctx.ip, ctx.ibuf,
                                                 ctx.data_buf)
            reset = yield from self.fs.cache.bawrite(ibuf2)
            for daddr in range(ctx.old_daddr, ctx.old_daddr + ctx.old_frags):
                self._track_frag(daddr, reset)
        if not must_init and not pending_resets:
            if ctx.ibuf is not None:
                self.fs.cache.bdwrite(ctx.ibuf)
            self.fs.cache.brelse(ctx.data_buf)
        else:
            # hold the pointer-owning buffer across the init-write issue so
            # its dependencies are recorded before any flush can happen
            if ctx.owner_kind == "inode":
                owner = yield from self._release_on_error(
                    self.fs.load_inode_buf(ctx.ip.ino),
                    ctx.ibuf, ctx.data_buf)
            else:
                owner = ctx.ibuf
            owner.flush_deps |= pending_resets
            self._bump("ordering.chain_links", len(pending_resets))
            if must_init:
                init_request = yield from self.fs.cache.bawrite(ctx.data_buf)
                owner.flush_deps.add(init_request.id)
                self._bump("ordering.chain_links")
            else:
                self.fs.cache.brelse(ctx.data_buf)
            if ctx.owner_kind == "inode":
                self.fs.cache.brelse(owner)
            else:
                self.fs.cache.bdwrite(owner)
        if moved:
            yield from self._free_moved(ctx)

    def truncated(self, ip, runs) -> Generator:
        ibuf = yield from self._inode_image(ip)
        reset = yield from self.fs.cache.bawrite(ibuf)
        if self.dealloc_barrier:
            self._barriers.add(reset.id)
            reset.on_complete.append(
                lambda req: self._barriers.discard(req.id))
        else:
            for daddr, frags in runs:
                for fragment in range(daddr, daddr + frags):
                    self._track_frag(fragment, reset)
        yield from self.fs.free_block_list(runs)

    def release_inode(self, ip) -> Generator:
        runs, ibuf = yield from self._released(ip)
        reset = yield from self.fs.cache.bawrite(ibuf)  # carries flush_deps
        if self.dealloc_barrier:
            self._barriers.add(reset.id)
            reset.on_complete.append(
                lambda req: self._barriers.discard(req.id))
        else:
            for daddr, frags in runs:
                for fragment in range(daddr, daddr + frags):
                    self._track_frag(fragment, reset)
            self._freed_inodes[ip.ino] = reset.id
            reset.on_complete.append(
                lambda req, i=ip.ino: self._untrack_inode(i, req.id))
        yield from self.fs.free_block_list(runs)

    # -- freed-resource tracking (section 3.2's better approach) ------------
    def _track_frag(self, daddr: int, request) -> None:
        self._freed_frags[daddr] = request.id
        request.on_complete.append(
            lambda req, d=daddr: self._untrack_frag(d, req.id))

    def _untrack_frag(self, daddr: int, request_id: int) -> None:
        if self._freed_frags.get(daddr) == request_id:
            del self._freed_frags[daddr]

    def _untrack_inode(self, ino: int, request_id: int) -> None:
        if self._freed_inodes.get(ino) == request_id:
            del self._freed_inodes[ino]

    def _inherit_freed_inode(self, ino: int, ibuf) -> None:
        pending = self._freed_inodes.get(ino)
        if pending is not None:
            ibuf.flush_deps.add(pending)

    def pending_work(self) -> int:
        return len(self._freed_frags) + len(self._freed_inodes)
