"""The ordering-scheme interface.

The file system performs every structural change on the *in-memory* state
first (in-core inodes, directory buffers, bitmaps), then hands control to the
mounted scheme at one of the four update points.  The scheme decides what to
write when -- synchronously, asynchronously with a flag or dependency list,
or not at all yet (delayed, with dependency records).

Buffer ownership contract: every held buffer passed to a hook is **consumed**
by the hook (released, or turned into a write which releases it per the
cache's block-copy rules).  In-core inodes are passed locked and stay locked.

The three ordering rules the hooks exist to uphold (paper, section 1):

1. never reset the old pointer to a resource before the new pointer has been
   set,
2. never re-use a resource before nullifying all previous pointers to it,
3. never point to a structure before it has been initialized.

Bookkeeping the schemes share lives here, so a hook holds only its ordering
decision: ``AllocContext.moved``, ``_inode_image``, ``_released`` (the
in-memory release of an inode) and ``_free_moved``.  No Order and soft
updates release in their own order and keep their own release code.  A
synchronous ordering write is ``_ordered_write(buf, point, *held)``, one
call per ordering edge, named by *point*.

The scheme is also the machine's one view of ordering: its driver policy,
``uses_block_copy``, the cache's two write hooks (FreeBSD's ``bioops``) and
``on_survivor``, the one stream of what a crash leaves off the media, each
have an inert default here, so nothing outside this package asks which
scheme it holds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Generator, Optional

from repro.driver.ordering import FlagPolicy, FlagSemantics, OrderingPolicy
from repro.faults import MediaError
from repro.ordering.guarantees import SAFE_DEFAULT, CrashGuarantees

if TYPE_CHECKING:
    from repro.cache.buffer import Buffer
    from repro.fs.inode import Inode
    from repro.fs.vfs import FileSystem


@dataclass
class AllocContext:
    """Everything a scheme needs to order one block/fragment allocation.

    ``owner_kind`` says where the new pointer lives: ``"inode"`` (a direct or
    indirect-root pointer in the in-core inode) or ``"indirect"`` (a slot in
    the held indirect-block buffer ``ibuf``).  ``old_daddr`` is nonzero when
    this allocation replaces a fragment run (extension by move), in which
    case the scheme must also order the old run's reuse (rule 2).
    ``is_metadata`` marks directory blocks and indirect blocks, whose
    initialization ordering is enforced by every scheme regardless of the
    allocation-initialization setting.
    """

    ip: "Inode"
    lblk: int
    owner_kind: str
    ibuf: Optional["Buffer"]
    slot: int
    new_daddr: int
    new_frags: int
    old_daddr: int
    old_frags: int
    data_buf: "Buffer"
    is_metadata: bool

    @property
    def moved(self) -> bool:
        """The fragment run was extended by moving it: the old run at
        ``old_daddr`` is the scheme's to free at the safe time."""
        return bool(self.old_daddr) and self.old_daddr != self.new_daddr


class OrderingScheme:
    """Base class; concrete schemes override the hooks they order."""

    #: display name used by the harness
    name = "base"
    #: whether the machine should enable the -CB block-copy enhancement
    uses_block_copy = False
    #: enforce allocation initialization for regular file data (tables 1-2
    #: compare each scheme with this on and off; soft updates defaults on)
    alloc_init = False
    #: what a crash at an arbitrary instant may leave behind; verified by
    #: the crash-exploration engine, never assumed
    declared_guarantees: CrashGuarantees = SAFE_DEFAULT
    #: machines size a journal area into the geometry for this scheme
    wants_journal = False
    #: observer ``(lbn, bytes | None)`` the recording installs; fired on
    #: every store and drop of battery-backed state (only NVRAM has any)
    on_survivor = None

    def __init__(self, alloc_init: Optional[bool] = None) -> None:
        if alloc_init is not None:
            self.alloc_init = alloc_init
        self.fs: "FileSystem" = None  # set by attach()
        self._tracer = None  # set by attach() when the machine observes
        #: ordering decisions by name (``ordering.sync_stall``,
        #: ``journal.commits`` ...); a name appears when first counted
        self.counts: dict[str, int] = {}

    def attach(self, fs: "FileSystem") -> None:
        """Bind to the mounted file system (called once at mount)."""
        self.fs = fs
        self._tracer = fs.engine.tracer

    def detach(self, fs: "FileSystem") -> None:
        """Unbind from *fs*, whose machine is gone; a no-op once a later
        machine has attached this scheme to its own file system."""
        if self.fs is fs:
            self.fs = self._tracer = None

    # -- what the rest of the machine asks of the scheme ---------------------
    def driver_policy(self) -> OrderingPolicy:
        """The driver discipline this scheme's writes rely on."""
        return FlagPolicy(FlagSemantics.IGNORE)

    def write_starting(self, buf: "Buffer", image: bytearray,
                       deps: set) -> None:
        """The cache issues a write of *buf* from *image* (a copy of its
        data) depending on the request ids in *deps*; both may be edited."""

    def write_done(self, buf: "Buffer") -> None:
        """A write of *buf* completed (driver context: must not block)."""

    # -- decision accounting ------------------------------------------------
    def _bump(self, name: str, amount: int = 1) -> None:
        """Count *amount* ordering decisions under *name*."""
        self.counts[name] = self.counts.get(name, 0) + amount

    def _ordered_wait(self, gen: Generator, kind: str,
                      **info) -> Generator:
        """Run *gen* -- a blocking ordering write -- counting
        ``ordering.<kind>`` and, when tracing, inside a span of that name.

        This is how a scheme's *decision* (stall the process, tag a flag,
        link a chain) shows up on the timeline.  With tracing off the
        generator runs untouched.
        """
        name = f"ordering.{kind}"
        self._bump(name)
        tracer = self._tracer
        if tracer is None:
            result = yield from gen
            return result
        span = tracer.begin(name, "ordering", args=info or None)
        try:
            result = yield from gen
        finally:
            tracer.end(span)
        return result

    def _release_on_error(self, gen: Generator, *bufs) -> Generator:
        """Run *gen*, releasing held buffers if a media error escapes.

        The hooks' ownership contract says every held buffer is consumed;
        when an EIO from a nested read or synchronous write aborts a hook
        midway, the buffers it was still holding must not stay B_BUSY
        forever (any later getblk of them would deadlock).  The failed
        operation itself is already typed on the request/buffer -- this
        guard only keeps the cache live so the machine can degrade instead
        of wedge.
        """
        try:
            result = yield from gen
        except MediaError:
            for buf in bufs:
                if buf is not None and buf.busy and not buf.write_outstanding:
                    self.fs.cache.brelse(buf)
            raise
        return result

    def _ordered_write(self, buf: "Buffer", point: str, *held) -> Generator:
        """Write held *buf* synchronously: one ordering edge, named by
        *point*, that later writes are ordered behind by waiting it out.

        Counts ``ordering.sync_stall``; the *held* buffers are released on
        EIO.  A scheme with another way to order a write overrides this
        (Scheduler Flag tags it instead).  Returns the generator rather
        than wrapping it, so an edge costs no extra frame.
        """
        gen = self._ordered_wait(self.fs.cache.bwrite(buf), "sync_stall",
                                 point=point)
        return self._release_on_error(gen, *held) if held else gen

    # -- bookkeeping every ordering scheme shares ---------------------------
    def _inode_image(self, ip: "Inode", *held) -> Generator:
        """Load *ip*'s inode block and copy the in-core inode into it
        (returned held); the *held* buffers are released on EIO."""
        ibuf = yield from self._release_on_error(
            self.fs.load_inode_buf(ip.ino), *held)
        self.fs.store_inode(ip, ibuf)
        return ibuf

    def _released(self, ip: "Inode") -> Generator:
        """Release *ip* in memory: collect its runs, clear its pointers and
        free its inode record, then zero its dinode in the inode block.

        Returns ``(runs, ibuf)`` with *ibuf* held; ordering *ibuf*'s reset
        write against freeing *runs* (rule 2) is the caller's decision.
        """
        runs = yield from self.fs.collect_blocks(ip)
        self.fs.clear_block_pointers(ip)
        yield from self.fs.free_inode_record(ip)
        ibuf = yield from self.fs.load_inode_buf(ip.ino)
        self.fs.clear_dinode(ip.ino, ibuf)
        return runs, ibuf

    def _free_moved(self, ctx: AllocContext) -> Generator:
        """Return a moved allocation's old run to the free pool."""
        self.fs.cache.invalidate(ctx.old_daddr, ctx.old_frags)
        yield from self.fs.allocator.free_frags(ctx.old_daddr, ctx.old_frags)

    @property
    def crash_guarantees(self) -> CrashGuarantees:
        """The effective declaration: allocation initialization (when on)
        closes the stale-data hole regardless of the scheme's static
        declaration (paper, section 1)."""
        declared = self.declared_guarantees
        if self.alloc_init and declared.allows_stale_data:
            return replace(declared, allows_stale_data=False)
        return declared

    # -- the four structural changes ------------------------------------
    def link_added(self, dp: "Inode", dbuf: "Buffer", offset: int,
                   ip: "Inode", new_inode: bool) -> Generator:
        """A directory entry for *ip* was placed in *dbuf* at *offset*.

        Must ensure the child's inode (initialized, link count raised)
        reaches stable storage before the directory entry does (rule 3 /
        rule 1).  Consumes *dbuf*.
        """
        raise NotImplementedError

    def dotdot_link_added(self, dp: "Inode", child_buf: "Buffer",
                          offset: int) -> Generator:
        """mkdir placed '..' (a link to existing *dp*) in the child's block.

        Unlike a link to a *new* inode, '..' points at an inode that is
        already initialized on disk, so rule 3 is not at stake -- only the
        parent's link count can transiently undercount (fsck-repairable).
        Default: order like a normal link addition.  Consumes *child_buf*.
        """
        yield from self.link_added(dp, child_buf, offset, dp, new_inode=False)

    def link_removed(self, dp: "Inode", dbuf: "Buffer", offset: int,
                     ip: "Inode") -> Generator:
        """The entry at *offset* (pointing at *ip*) was cleared in *dbuf*.

        Must ensure the directory block reaches stable storage before the
        inode's link count is decremented on disk (rule 1), and is
        responsible for eventually running ``fs.drop_link(ip)``.  Consumes
        *dbuf*.
        """
        raise NotImplementedError

    def block_allocated(self, ctx: AllocContext) -> Generator:
        """A block/fragment run was allocated (pointer already set in memory).

        Must enforce rule 3 (initialization before pointer) when
        ``ctx.is_metadata`` or ``self.alloc_init``, and rule 2 for
        ``ctx.old_daddr`` (the scheme frees the old run at the safe time).
        Consumes ``ctx.data_buf`` and ``ctx.ibuf``.
        """
        raise NotImplementedError

    def release_inode(self, ip: "Inode") -> Generator:
        """*ip*'s last link is gone: free its blocks and the inode itself.

        Must enforce rule 2: neither the blocks nor the inode slot may be
        reused before the on-disk pointers to them are nullified.
        """
        raise NotImplementedError

    def truncated(self, ip: "Inode", runs: list) -> Generator:
        """*ip* was truncated to zero: pointers already reset in core.

        Must enforce rule 2 for *runs* (the freed block runs): they may not
        be reused before the reset pointers reach stable storage.
        """
        raise NotImplementedError

    # -- unordered update points -------------------------------------------
    def inode_updated(self, ip: "Inode") -> Generator:
        """Non-structural inode change (size, times, link count bump already
        ordered elsewhere).  Default: copy to the inode block, delayed write.
        """
        ibuf = yield from self.fs.load_inode_buf(ip.ino)
        self.fs.store_inode(ip, ibuf)
        self.fs.cache.bdwrite(ibuf)

    def data_written(self, ip: "Inode", buf: "Buffer") -> Generator:
        """Regular file data filled into *buf*.  Default: delayed write."""
        self.fs.cache.bdwrite(buf)
        return
        yield  # pragma: no cover - keeps this a generator

    def fsync(self, ip: "Inode") -> Generator:
        """Make *ip* (inode + data) durable before returning (SYNCIO)."""
        yield from self.fs.flush_file_data(ip)
        yield from self.fs.flush_inode_sync(ip)

    # -- lifecycle -------------------------------------------------------------
    def mounted(self) -> None:
        """Scheme-specific post-mount setup (timers, zero block, ...)."""

    def drain(self) -> Generator:
        """Complete all deferred work (overridden by soft updates)."""
        return
        yield  # pragma: no cover - keeps this a generator

    def pending_work(self) -> int:
        """Outstanding deferred work (soft updates); 0 for eager schemes."""
        return 0

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
