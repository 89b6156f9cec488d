"""The file system proper: namei, allocation plumbing, and the syscalls.

Every public operation is a simulated-process subroutine (``yield from``):
it charges CPU through the cost model, blocks on buffer locks and disk I/O,
performs in-memory updates, and defers all *ordering* decisions to the
mounted :class:`~repro.ordering.base.OrderingScheme` at the paper's four
structural change points.
"""

from __future__ import annotations

import struct
from typing import Generator, Iterable, Optional

from repro.cache.buffer import Buffer
from repro.cache.buffercache import BufferCache
from repro.cache.syncer import SyncerDaemon
from repro.costs import CostModel
from repro.fs import directory
from repro.fs.alloc import Allocator
from repro.fs.inode import Inode, InodeTable
from repro.fs.layout import (Dinode, FileType, FSGeometry, INODE_SIZE,
                             ROOT_INO, block_frags)
from repro.fs.superblock import Superblock
from repro.ordering.base import AllocContext, OrderingScheme
from repro.sim.cpu import CPU
from repro.sim.engine import Engine


class FsError(Exception):
    """A file system call failed (POSIX-style code in ``code``)."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code


class OpenFile:
    """A file handle: an in-core inode reference plus a byte offset."""

    __slots__ = ("ip", "offset", "closed")

    def __init__(self, ip: Inode) -> None:
        self.ip = ip
        self.offset = 0
        self.closed = False


def _syscall(fn):
    """Count a syscall generator method, and trace it when observability
    is on.

    Every call is counted in ``FileSystem.op_counts``.  With tracing off
    the original generator is then returned untouched -- one attribute
    check, no per-yield wrapping.  With tracing on the generator is driven
    through :meth:`FileSystem._traced_syscall`, which brackets it in a
    ``syscall.<name>`` span.
    """
    name = fn.__name__

    def wrapper(self, *args, **kwargs):
        gen = fn(self, *args, **kwargs)
        counts = self.op_counts
        counts[name] = counts.get(name, 0) + 1
        tracer = self.engine.tracer
        if tracer is None:
            return gen
        return self._traced_syscall(name, gen, tracer)

    wrapper.__name__ = name
    wrapper.__qualname__ = fn.__qualname__
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    return wrapper


def _split(path: str) -> list[str]:
    if not path.startswith("/"):
        raise FsError("EINVAL", f"path must be absolute: {path!r}")
    parts = [p for p in path.split("/") if p]
    for part in parts:
        if part in (".", "..") or len(part) > directory.MAX_NAME:
            raise FsError("EINVAL", f"unsupported path component {part!r}")
    return parts


class FileSystem:
    """A mounted file system instance."""

    def __init__(self, engine: Engine, cache: BufferCache, cpu: CPU,
                 costs: CostModel, scheme: OrderingScheme,
                 syncer: Optional[SyncerDaemon] = None) -> None:
        self.engine = engine
        self.cache = cache
        self.cpu = cpu
        self.costs = costs
        self.scheme = scheme
        self.syncer = syncer
        self.geometry: FSGeometry = None
        self.superblock: Superblock = None
        self.allocator: Allocator = None
        self.itable = InodeTable(engine)
        self._generation = 0
        #: calls per syscall name, in first-call order (``_syscall`` counts)
        self.op_counts: dict[str, int] = {}

    # ==================================================================
    # mount / unmount
    # ==================================================================
    def mount(self, geometry_hint: Optional[FSGeometry] = None) -> Generator:
        """Read the superblock, load allocation summaries, bind the scheme.

        The superblock's location depends on the geometry it describes; pass
        *geometry_hint* when mounting a non-default layout (mkfs callers
        already know it).
        """
        sb_daddr = (geometry_hint or FSGeometry()).superblock_daddr
        sb_buf = yield from self.cache.bread(sb_daddr, self.cache.frag_size)
        self.superblock = Superblock.unpack(bytes(sb_buf.data))
        self.cache.brelse(sb_buf)
        self.geometry = self.superblock.geometry
        if self.geometry.frag_size != self.cache.frag_size:
            raise FsError("EINVAL", "cache fragment size != fs fragment size")
        self.allocator = Allocator(self.geometry, self.cache)
        yield from self.allocator.load_summaries()
        self.scheme.attach(self)
        self.scheme.mounted()

    def unmount(self) -> Generator:
        """Drain all deferred work and flush everything."""
        yield from self.scheme.drain()
        yield from self.cache.sync()

    # ==================================================================
    # in-core inode services
    # ==================================================================
    def iget(self, ino: int) -> Generator:
        """Fetch the in-core inode (loading from disk if needed); refs++."""
        ip = self.itable.get_cached(ino)
        if ip is None:
            ibuf = yield from self.load_inode_buf(ino)
            at = self.geometry.inode_offset_in_block(ino)
            din = Dinode.unpack(bytes(ibuf.data[at:at + INODE_SIZE]))
            self.cache.brelse(ibuf)
            ip = self.itable.get_cached(ino)  # lost a race while reading?
            if ip is None:
                ip = self.itable.install(ino, din)
        ip.refs += 1
        return ip

    def iput(self, ip: Inode) -> None:
        """Drop a reference taken by :meth:`iget`."""
        ip.refs -= 1

    def load_inode_buf(self, ino: int) -> Generator:
        """bread the inode block containing *ino* (returned held)."""
        return self.cache.bread(self.geometry.inode_block_daddr(ino),
                                self.geometry.block_size)

    def store_inode(self, ip: Inode, ibuf: Buffer) -> None:
        """Copy the in-core inode into its (held) inode-block buffer."""
        at = self.geometry.inode_offset_in_block(ip.ino)
        ibuf.data[at:at + INODE_SIZE] = ip.din.pack()

    def clear_dinode(self, ino: int, ibuf: Buffer) -> None:
        """Zero inode *ino*'s slot in its (held) inode-block buffer."""
        at = self.geometry.inode_offset_in_block(ino)
        ibuf.data[at:at + INODE_SIZE] = bytes(INODE_SIZE)

    def iupdat(self, ip: Inode) -> Generator:
        """Schedule the in-core inode for stable storage (scheme decides how)."""
        return self.scheme.inode_updated(ip)

    def flush_inode_sync(self, ip: Inode) -> Generator:
        """Synchronously write the inode block (base fsync building block)."""
        ibuf = yield from self.load_inode_buf(ip.ino)
        self.store_inode(ip, ibuf)
        yield from self.cache.bwrite(ibuf)

    def flush_file_data(self, ip: Inode) -> Generator:
        """Push every dirty buffer of *ip* (data + indirects) to the disk."""
        runs = yield from self.collect_blocks(ip)
        pending = []
        for daddr, _frags in runs:
            buf = self.cache.peek(daddr)
            if buf is None:
                continue
            while buf.busy:
                yield buf.waitq.wait()
            request = self.cache.start_flush(buf)
            if request is not None:
                pending.append(request.done)
            else:
                while buf.write_outstanding:
                    yield self.cache._space.wait()
        for done in pending:
            yield done

    def drop_link(self, ip: Inode) -> Generator:
        """Decrement the link count; release the inode when it hits zero.

        Called by schemes at the moment their ordering rules allow (possibly
        from a deferred workitem).
        """
        ip.din.nlink -= 1
        if ip.din.nlink < 0:
            raise RuntimeError(f"negative link count on inode {ip.ino}")
        if ip.din.nlink > 0 or ip.refs > 0:
            yield from self.iupdat(ip)
            return
        yield from self.scheme.release_inode(ip)

    # -- release building blocks used by the schemes ---------------------
    def collect_blocks(self, ip: Inode) -> Generator:
        """Enumerate every (daddr, frags) run the inode holds, incl. indirects."""
        geo = self.geometry
        runs: list[tuple[int, int]] = []
        nblocks = (ip.din.size + geo.block_size - 1) // geo.block_size
        for lblk in range(min(nblocks, geo.NDADDR)):
            daddr = ip.din.direct[lblk]
            if daddr:
                runs.append((daddr, block_frags(geo, ip.din, lblk)))
        if ip.din.sindirect:
            runs.extend((yield from self._collect_indirect(
                ip.din.sindirect, depth=1)))
        if ip.din.dindirect:
            runs.extend((yield from self._collect_indirect(
                ip.din.dindirect, depth=2)))
        return runs

    def _collect_indirect(self, daddr: int, depth: int) -> Generator:
        geo = self.geometry
        buf = yield from self.cache.bread(daddr, geo.block_size)
        pointers = [p for p in struct.unpack(f"<{geo.nindir}I", bytes(buf.data))
                    if p]
        self.cache.brelse(buf)
        runs = [(daddr, geo.frags_per_block)]
        for pointer in pointers:
            if depth > 1:
                runs.extend((yield from self._collect_indirect(
                    pointer, depth - 1)))
            else:
                runs.append((pointer, geo.frags_per_block))
        return runs

    def clear_block_pointers(self, ip: Inode) -> None:
        """Reset every block pointer in the in-core inode (rule-1 reset)."""
        ip.din.direct = [0] * self.geometry.NDADDR
        ip.din.sindirect = 0
        ip.din.dindirect = 0
        ip.din.size = 0
        ip.din.frags_held = 0

    def free_block_list(self, runs: list[tuple[int, int]]) -> Generator:
        """Return runs to the free pool and drop their cached buffers."""
        for daddr, frags in runs:
            self.cache.invalidate(daddr, frags)
            yield from self.cpu.compute(self.costs.free * self.costs.scale)
            yield from self.allocator.free_frags(daddr, frags)

    def free_inode_record(self, ip: Inode) -> Generator:
        """Clear the dinode and release the inode number."""
        ip.din = Dinode()
        ip.deleted = True
        self.itable.drop(ip.ino)
        yield from self.allocator.free_inode(ip.ino)

    # ==================================================================
    # path resolution
    # ==================================================================
    def namei(self, path: str) -> Generator:
        """Resolve *path* to a referenced in-core inode."""
        return self._walk(_split(path), path)

    def _walk(self, parts: list[str], path: str) -> Generator:
        """Resolve the components *parts* of *path* from the root."""
        costs = self.costs
        ip = yield from self.iget(ROOT_INO)
        for part in parts:
            yield from self.cpu.compute(costs.namei_component * costs.scale)
            if not ip.is_dir:
                self.iput(ip)
                raise FsError("ENOTDIR", path)
            yield from ip.lock.acquire()
            try:
                found = yield from self._dir_lookup(ip, part)
            finally:
                ip.lock.release()
            self.iput(ip)
            if found is None:
                raise FsError("ENOENT", path)
            ip = yield from self.iget(found.ino)
        return ip

    def namei_parent(self, path: str) -> Generator:
        """Resolve to (parent directory inode, final component name)."""
        parts = _split(path)
        if not parts:
            raise FsError("EINVAL", "path has no final component")
        parent_path = "/" + "/".join(parts[:-1])
        dp = yield from self._walk(parts[:-1], parent_path)
        if not dp.is_dir:
            self.iput(dp)
            raise FsError("ENOTDIR", parent_path)
        return dp, parts[-1]

    # -- directory internals ------------------------------------------------
    def _dir_block(self, dp: Inode, lblk: int) -> Generator:
        if 0 <= lblk < FSGeometry.NDADDR:
            daddr = dp.din.direct[lblk]
        else:
            daddr = yield from self.bmap(dp, lblk)
        if daddr == 0:
            raise FsError("EIO", f"hole in directory {dp.ino} at block {lblk}")
        buf = yield from self.cache.bread(daddr, self.geometry.block_size)
        return buf

    def _dir_nblocks(self, dp: Inode) -> int:
        return (dp.din.size + self.geometry.block_size - 1) \
            // self.geometry.block_size

    @staticmethod
    def _dir_index(buf: Buffer) -> directory.DirIndex:
        """The live ``DirIndex`` of a directory block, decoded on first use."""
        if buf.dir_index is None:
            buf.dir_index = directory.build_index(buf.data)
        return buf.dir_index

    def _dir_lookup(self, dp: Inode, name: str) -> Generator:
        """Find *name* in locked directory *dp*; returns a DirEntry or None.

        Simulated CPU time is charged for the records a linear scan would
        have visited, whether or not one ran, so the timeline does not
        depend on the index.
        """
        bs = self.geometry.block_size
        for lblk in range(self._dir_nblocks(dp)):
            buf = yield from self._dir_block(dp, lblk)
            entry, scanned = self._dir_index(buf).find(name, lblk * bs)
            yield from self.cpu.compute(
                self.costs.dirent_scan * scanned * self.costs.scale)
            self.cache.brelse(buf)
            if entry is not None:
                return entry
        return None

    def _dir_add_entry(self, dp: Inode, name: str, ino: int,
                       ftype: FileType) -> Generator:
        """Place an entry; returns the held buffer and the entry offset."""
        bs = self.geometry.block_size
        nblocks = self._dir_nblocks(dp)
        for lblk in range(nblocks + 1):
            if lblk < nblocks:
                buf = yield from self._dir_block(dp, lblk)
            else:  # directory full: grow it by one (full) block of empty chunks
                buf = yield from self._grow_directory(dp, lblk)
            offset = self._dir_index(buf).add(name, ino, ftype)
            if offset is not None:
                return buf, lblk * bs + offset
            self.cache.brelse(buf)
        raise AssertionError(f"fresh block of directory {dp.ino} is full")

    def _grow_directory(self, dp: Inode, lblk: int) -> Generator:
        """Allocate and initialize a fresh directory block (returned held)."""
        bs = self.geometry.block_size
        image = directory.empty_chunk() * (bs // directory.DIRBLKSIZ)
        buf = yield from self._balloc(dp, lblk, bs, is_metadata=True,
                                      init_image=image)
        dp.din.size = (lblk + 1) * bs
        yield from self.iupdat(dp)
        return buf

    # ==================================================================
    # block mapping and allocation
    # ==================================================================
    def bmap(self, ip: Inode, lblk: int) -> Generator:
        """Logical block -> fragment daddr (0 for a hole)."""
        geo = self.geometry
        if lblk < 0:
            raise FsError("EINVAL", f"negative block {lblk}")
        if lblk < geo.NDADDR:
            return ip.din.direct[lblk]
        lblk -= geo.NDADDR
        if lblk < geo.nindir:
            if not ip.din.sindirect:
                return 0
            daddr = yield from self._indirect_slot(ip.din.sindirect, lblk)
            return daddr
        lblk -= geo.nindir
        if lblk < geo.nindir * geo.nindir:
            if not ip.din.dindirect:
                return 0
            level1 = yield from self._indirect_slot(ip.din.dindirect,
                                                    lblk // geo.nindir)
            if not level1:
                return 0
            daddr = yield from self._indirect_slot(level1, lblk % geo.nindir)
            return daddr
        raise FsError("EFBIG", f"block {lblk} beyond maximum file size")

    def _indirect_slot(self, ind_daddr: int, index: int) -> Generator:
        buf = yield from self.cache.bread(ind_daddr, self.geometry.block_size)
        value = struct.unpack_from("<I", buf.data, 4 * index)[0]
        self.cache.brelse(buf)
        return value

    def _balloc(self, ip: Inode, lblk: int, nbytes: int,
                is_metadata: bool = False,
                init_image: Optional[bytes] = None) -> Generator:
        """Ensure *lblk* has at least *nbytes* of storage; return held buffer.

        Handles fresh allocation, in-place fragment extension, and extension
        by move; routes each through ``scheme.block_allocated``.  The buffer
        is re-acquired after the scheme hook (hooks consume buffers).
        *init_image* supplies the initialization contents for fresh metadata
        blocks (directory chunks; indirect blocks default to zeros).
        """
        geo = self.geometry
        frag = geo.frag_size
        want_frags = geo.frags_per_block if (is_metadata or lblk >= geo.NDADDR
                                             or nbytes >= geo.block_size) \
            else max(1, (nbytes + frag - 1) // frag)
        hint = geo.cg_of_inode(ip.ino)

        owner_kind, ibuf, slot, old_daddr = yield from self._owner_of(ip, lblk)
        old_frags = block_frags(geo, ip.din, lblk) if old_daddr else 0

        if old_daddr and old_frags >= want_frags:
            if ibuf is not None:
                self.cache.brelse(ibuf)
            # existing storage suffices; bread so partial overwrites keep the
            # current contents
            buf = yield from self.cache.bread(old_daddr, old_frags * frag)
            return buf

        yield from self.cpu.compute(self.costs.alloc * self.costs.scale)
        if old_daddr:
            extended = yield from self.allocator.try_extend_frags(
                old_daddr, old_frags, want_frags)
            if extended:
                buf = yield from self.cache.getblk(old_daddr,
                                                   want_frags * frag)
                ctx = AllocContext(ip=ip, lblk=lblk, owner_kind=owner_kind,
                                   ibuf=ibuf, slot=slot, new_daddr=old_daddr,
                                   new_frags=want_frags, old_daddr=old_daddr,
                                   old_frags=old_frags, data_buf=buf,
                                   is_metadata=is_metadata)
                yield from self.scheme.block_allocated(ctx)
                buf = yield from self.cache.getblk(old_daddr,
                                                   want_frags * frag)
                return buf
            # extension by move: allocate the larger run, copy, free old
            new_daddr = yield from self.allocator.alloc_frags(hint, want_frags)
            old_buf = yield from self.cache.bread(old_daddr, old_frags * frag)
            old_data = bytes(old_buf.data)
            self.cache.brelse(old_buf)
            buf = yield from self.cache.getblk(new_daddr, want_frags * frag)
            buf.fill(old_data + bytes(len(buf.data) - len(old_data)))
            yield from self.cpu.compute(self.costs.block_copy(len(old_data)))
        else:
            new_daddr = yield from self.allocator.alloc_frags(hint, want_frags)
            buf = yield from self.cache.getblk(new_daddr, want_frags * frag)
            buf.fill(init_image if init_image is not None
                     else bytes(len(buf.data)))
            old_frags = 0
            old_daddr = 0

        self._set_owner_slot(ip, ibuf, owner_kind, slot, new_daddr)
        ip.din.frags_held += want_frags - old_frags
        ctx = AllocContext(ip=ip, lblk=lblk, owner_kind=owner_kind, ibuf=ibuf,
                           slot=slot, new_daddr=new_daddr,
                           new_frags=want_frags, old_daddr=old_daddr,
                           old_frags=old_frags, data_buf=buf,
                           is_metadata=is_metadata)
        yield from self.scheme.block_allocated(ctx)
        buf = yield from self.cache.getblk(new_daddr, want_frags * frag)
        return buf

    def _owner_of(self, ip: Inode, lblk: int) -> Generator:
        """Locate where *lblk*'s pointer lives, creating indirect blocks.

        Returns (owner_kind, held indirect buffer or None, slot, current
        pointer value).
        """
        geo = self.geometry
        if lblk < geo.NDADDR:
            return "inode", None, lblk, ip.din.direct[lblk]
        index = lblk - geo.NDADDR
        if index < geo.nindir:
            if not ip.din.sindirect:
                yield from self._alloc_indirect(ip, "sindirect")
            ibuf = yield from self.cache.bread(ip.din.sindirect,
                                               geo.block_size)
            current = struct.unpack_from("<I", ibuf.data, 4 * index)[0]
            return "indirect", ibuf, index, current
        index -= geo.nindir
        if index >= geo.nindir * geo.nindir:
            raise FsError("EFBIG", f"block {lblk} beyond maximum file size")
        if not ip.din.dindirect:
            yield from self._alloc_indirect(ip, "dindirect")
        l1buf = yield from self.cache.bread(ip.din.dindirect, geo.block_size)
        l1slot = index // geo.nindir
        level1 = struct.unpack_from("<I", l1buf.data, 4 * l1slot)[0]
        if not level1:
            level1 = yield from self._alloc_indirect_in(ip, l1buf, l1slot)
            l1buf = yield from self.cache.bread(ip.din.dindirect,
                                                geo.block_size)
        self.cache.brelse(l1buf)
        ibuf = yield from self.cache.bread(level1, geo.block_size)
        l2slot = index % geo.nindir
        current = struct.unpack_from("<I", ibuf.data, 4 * l2slot)[0]
        return "indirect", ibuf, l2slot, current

    def _alloc_indirect(self, ip: Inode, which: str) -> Generator:
        """Allocate a root indirect block (pointer lives in the inode)."""
        geo = self.geometry
        daddr = yield from self.allocator.alloc_block(
            geo.cg_of_inode(ip.ino))
        buf = yield from self.cache.getblk(daddr, geo.block_size)
        buf.fill(bytes(geo.block_size))
        setattr(ip.din, which, daddr)
        ip.din.frags_held += geo.frags_per_block
        slot = geo.NDADDR if which == "sindirect" else geo.NDADDR + 1
        ctx = AllocContext(ip=ip, lblk=-1, owner_kind="inode", ibuf=None,
                           slot=slot, new_daddr=daddr,
                           new_frags=geo.frags_per_block, old_daddr=0,
                           old_frags=0, data_buf=buf, is_metadata=True)
        yield from self.scheme.block_allocated(ctx)

    def _alloc_indirect_in(self, ip: Inode, l1buf: Buffer,
                           slot: int) -> Generator:
        """Allocate a second-level indirect block (pointer in *l1buf*)."""
        geo = self.geometry
        daddr = yield from self.allocator.alloc_block(geo.cg_of_inode(ip.ino))
        buf = yield from self.cache.getblk(daddr, geo.block_size)
        buf.fill(bytes(geo.block_size))
        struct.pack_into("<I", l1buf.data, 4 * slot, daddr)
        ip.din.frags_held += geo.frags_per_block
        ctx = AllocContext(ip=ip, lblk=-1, owner_kind="indirect", ibuf=l1buf,
                           slot=slot, new_daddr=daddr,
                           new_frags=geo.frags_per_block, old_daddr=0,
                           old_frags=0, data_buf=buf, is_metadata=True)
        yield from self.scheme.block_allocated(ctx)
        return daddr

    def _set_owner_slot(self, ip: Inode, ibuf: Optional[Buffer],
                        owner_kind: str, slot: int, daddr: int) -> None:
        if owner_kind == "inode":
            ip.din.direct[slot] = daddr
        else:
            struct.pack_into("<I", ibuf.data, 4 * slot, daddr)

    # ==================================================================
    # syscalls
    # ==================================================================
    def _enter(self) -> Iterable:
        """Charge the fixed kernel-entry cost every syscall pays."""
        return self.cpu.compute(self.costs.syscall * self.costs.scale)

    def _traced_syscall(self, name: str, gen: Generator,
                        tracer) -> Generator:
        """Drive *gen* inside a ``syscall.<name>`` span (tracing on only)."""
        span = tracer.begin(f"syscall.{name}", "syscall")
        try:
            result = yield from gen
        finally:
            tracer.end(span)
        return result

    @_syscall
    def create(self, path: str) -> Generator:
        """Create a regular file; returns an :class:`OpenFile`."""
        yield from self._enter()
        dp, name = yield from self.namei_parent(path)
        yield from dp.lock.acquire()
        try:
            existing = yield from self._dir_lookup(dp, name)
            if existing is not None:
                raise FsError("EEXIST", path)
            yield from self.cpu.compute(self.costs.create * self.costs.scale)
            ino = yield from self.allocator.alloc_inode(
                self.geometry.cg_of_inode(dp.ino), for_directory=False)
            self._generation += 1
            din = Dinode(mode=int(FileType.REGULAR) | 0o644, nlink=1,
                         generation=self._generation,
                         mtime=int(self.engine.now))
            ip = self.itable.install(ino, din)
            ip.refs += 1
            dbuf, offset = yield from self._dir_add_entry(
                dp, name, ino, FileType.REGULAR)
            yield from self.scheme.link_added(dp, dbuf, offset, ip,
                                              new_inode=True)
            yield from self.iupdat(dp)
        finally:
            dp.lock.release()
            self.iput(dp)
        return OpenFile(ip)

    @_syscall
    def mkdir(self, path: str) -> Generator:
        """Create a directory."""
        yield from self._enter()
        dp, name = yield from self.namei_parent(path)
        yield from dp.lock.acquire()
        try:
            existing = yield from self._dir_lookup(dp, name)
            if existing is not None:
                raise FsError("EEXIST", path)
            yield from self.cpu.compute(self.costs.create * self.costs.scale)
            ino = yield from self.allocator.alloc_inode(
                self.geometry.cg_of_inode(dp.ino), for_directory=True)
            self._generation += 1
            din = Dinode(mode=int(FileType.DIRECTORY) | 0o755, nlink=2,
                         generation=self._generation,
                         mtime=int(self.engine.now))
            ip = self.itable.install(ino, din)
            ip.refs += 1
            # the new directory's first block: '.' and '..'
            bs = self.geometry.block_size
            first = directory.new_dir_contents(ino, dp.ino)
            fill = directory.empty_chunk() * ((bs - len(first))
                                              // directory.DIRBLKSIZ)
            buf = yield from self._balloc(ip, 0, bs, is_metadata=True,
                                          init_image=first + fill)
            ip.din.size = bs
            # '..' is a link to the parent: raise parent's count and order it
            dp.din.nlink += 1
            yield from self.scheme.dotdot_link_added(dp, buf,
                                                     directory.DOTDOT_OFFSET)
            # the parent's entry for the new directory
            dbuf, offset = yield from self._dir_add_entry(
                dp, name, ino, FileType.DIRECTORY)
            yield from self.scheme.link_added(dp, dbuf, offset, ip,
                                              new_inode=True)
            yield from self.iupdat(dp)
            self.iput(ip)
        finally:
            dp.lock.release()
            self.iput(dp)

    @_syscall
    def unlink(self, path: str) -> Generator:
        """Remove a file's directory entry (and the file at zero links)."""
        yield from self._enter()
        dp, name = yield from self.namei_parent(path)
        yield from dp.lock.acquire()
        try:
            entry = yield from self._dir_lookup(dp, name)
            if entry is None:
                raise FsError("ENOENT", path)
            ip = yield from self.iget(entry.ino)
            if ip.is_dir:
                self.iput(ip)
                raise FsError("EISDIR", path)
            yield from self.cpu.compute(self.costs.remove * self.costs.scale)
            dbuf, offset = yield from self._dir_delete(dp, entry)
            # drop our transient reference before the scheme runs drop_link,
            # so an immediate release is not mistaken for an open file
            self.iput(ip)
            yield from self.scheme.link_removed(dp, dbuf, offset, ip)
        finally:
            dp.lock.release()
            self.iput(dp)

    @_syscall
    def rmdir(self, path: str) -> Generator:
        """Remove an empty directory."""
        yield from self._enter()
        dp, name = yield from self.namei_parent(path)
        yield from dp.lock.acquire()
        try:
            entry = yield from self._dir_lookup(dp, name)
            if entry is None:
                raise FsError("ENOENT", path)
            ip = yield from self.iget(entry.ino)
            if not ip.is_dir:
                self.iput(ip)
                raise FsError("ENOTDIR", path)
            empty = yield from self._dir_is_empty(ip)
            if not empty:
                self.iput(ip)
                raise FsError("ENOTEMPTY", path)
            yield from self.cpu.compute(self.costs.remove * self.costs.scale)
            dbuf, offset = yield from self._dir_delete(dp, entry)
            # the victim's '..' link on the parent goes away with it
            dp.din.nlink -= 1
            ip.din.nlink -= 1  # drop '.' ; scheme drops the parent entry link
            self.iput(ip)
            yield from self.scheme.link_removed(dp, dbuf, offset, ip)
            yield from self.iupdat(dp)
        finally:
            dp.lock.release()
            self.iput(dp)

    @_syscall
    def link(self, existing: str, newpath: str) -> Generator:
        """Add a hard link to an existing file."""
        yield from self._enter()
        ip = yield from self.namei(existing)
        if ip.is_dir:
            self.iput(ip)
            raise FsError("EISDIR", existing)
        dp, name = yield from self.namei_parent(newpath)
        yield from dp.lock.acquire()
        try:
            clash = yield from self._dir_lookup(dp, name)
            if clash is not None:
                raise FsError("EEXIST", newpath)
            ip.din.nlink += 1
            dbuf, offset = yield from self._dir_add_entry(
                dp, name, ip.ino, FileType.REGULAR)
            yield from self.scheme.link_added(dp, dbuf, offset, ip,
                                              new_inode=False)
            yield from self.iupdat(dp)
        finally:
            dp.lock.release()
            self.iput(dp)
            self.iput(ip)

    @_syscall
    def rename(self, oldpath: str, newpath: str) -> Generator:
        """Rename: add the new link, then remove the old (paper section 1).

        The new directory entry reaches stable storage before the old one is
        removed, so a crash never loses both names.
        """
        yield from self._enter()
        target = yield from self.namei(oldpath)
        if target.is_dir:
            self.iput(target)
            raise FsError("EISDIR", "directory rename not supported")
        if _split(oldpath) == _split(newpath):
            self.iput(target)   # one name: nothing to move
            return
        try:
            yield from self.unlink(newpath)
        except FsError as err:
            if err.code != "ENOENT":
                self.iput(target)
                raise
        dp, name = yield from self.namei_parent(newpath)
        yield from dp.lock.acquire()
        try:
            target.din.nlink += 1
            dbuf, offset = yield from self._dir_add_entry(
                dp, name, target.ino, FileType.REGULAR)
            yield from self.scheme.link_added(dp, dbuf, offset, target,
                                              new_inode=False)
            yield from self.iupdat(dp)
        finally:
            dp.lock.release()
            self.iput(dp)
        self.iput(target)
        yield from self.unlink(oldpath)

    def _dir_delete(self, dp: Inode, entry: directory.DirEntry) -> Generator:
        """Clear *entry* in its buffer; returns (held buffer, offset)."""
        bs = self.geometry.block_size
        lblk, in_block = divmod(entry.offset, bs)
        buf = yield from self._dir_block(dp, lblk)
        self._dir_index(buf).remove(in_block)
        return buf, entry.offset

    def _dir_is_empty(self, ip: Inode) -> Generator:
        for lblk in range(self._dir_nblocks(ip)):
            buf = yield from self._dir_block(ip, lblk)
            empty = self._dir_index(buf).empty()
            self.cache.brelse(buf)
            if not empty:
                return False
        return True

    # -- open / read / write -------------------------------------------------
    @_syscall
    def open(self, path: str) -> Generator:
        """Open an existing file."""
        yield from self._enter()
        ip = yield from self.namei(path)
        if ip.is_dir:
            self.iput(ip)
            raise FsError("EISDIR", path)
        return OpenFile(ip)

    @_syscall
    def close(self, handle: OpenFile) -> Generator:
        """Close: schedule the inode's timestamps/size for stable storage."""
        yield from self._enter()
        if handle.closed:
            raise FsError("EINVAL", "double close")
        handle.closed = True
        ip = handle.ip
        yield from self.iupdat(ip)
        self.iput(ip)
        if ip.refs == 0 and ip.din.nlink == 0 and not ip.deleted:
            # last close of an already-unlinked file: release it now
            yield from self.scheme.release_inode(ip)

    @_syscall
    def write(self, handle: OpenFile, data: bytes) -> Generator:
        """Write *data* at the handle's offset; returns bytes written."""
        yield from self._enter()
        ip = handle.ip
        yield from ip.lock.acquire()
        try:
            yield from self.cpu.compute(self.costs.copy_bytes(len(data)))
            bs = self.geometry.block_size
            position = handle.offset
            end = position + len(data)
            cursor = 0
            while position < end:
                lblk = position // bs
                in_block = position % bs
                take = min(bs - in_block, end - position)
                already = min(max(ip.din.size - lblk * bs, 0), bs)
                need_bytes = max(in_block + take, already)
                buf = yield from self._balloc(ip, lblk, need_bytes)
                buf.data[in_block:in_block + take] = \
                    data[cursor:cursor + take]
                buf.valid = True
                if position + take > ip.din.size:
                    ip.din.size = position + take
                yield from self.scheme.data_written(ip, buf)
                position += take
                cursor += take
            handle.offset = position
            ip.din.mtime = int(self.engine.now)
            yield from self.iupdat(ip)
        finally:
            ip.lock.release()
        return len(data)

    @_syscall
    def read(self, handle: OpenFile, nbytes: int) -> Generator:
        """Read up to *nbytes* from the handle's offset."""
        yield from self._enter()
        ip = handle.ip
        yield from ip.lock.acquire()
        try:
            bs = self.geometry.block_size
            position = handle.offset
            end = min(position + nbytes, ip.din.size)
            chunks: list[bytes] = []
            while position < end:
                lblk = position // bs
                in_block = position % bs
                take = min(bs - in_block, end - position)
                daddr = yield from self.bmap(ip, lblk)
                if daddr == 0:
                    chunks.append(bytes(take))  # hole
                else:
                    frags = block_frags(self.geometry, ip.din, lblk)
                    buf = yield from self.cache.bread(
                        daddr, frags * self.geometry.frag_size)
                    chunks.append(bytes(buf.data[in_block:in_block + take]))
                    self.cache.brelse(buf)
                position += take
            data = b"".join(chunks)
            yield from self.cpu.compute(self.costs.copy_bytes(len(data)))
            handle.offset = position
        finally:
            ip.lock.release()
        return data

    # -- path-level conveniences ------------------------------------------
    def write_file(self, path: str, data: bytes,
                   chunk: int = 8192) -> Generator:
        """create + write (in *chunk* pieces, like cp) + close."""
        handle = yield from self.create(path)
        for at in range(0, len(data), chunk):
            yield from self.write(handle, data[at:at + chunk])
        yield from self.close(handle)

    def read_file(self, path: str, chunk: int = 8192) -> Generator:
        """open + read to EOF + close; returns the contents."""
        handle = yield from self.open(path)
        pieces = []
        while True:
            piece = yield from self.read(handle, chunk)
            if not piece:
                break
            pieces.append(piece)
        yield from self.close(handle)
        return b"".join(pieces)

    @_syscall
    def stat(self, path: str) -> Generator:
        """Return a copy of the inode's attributes."""
        yield from self._enter()
        yield from self.cpu.compute(self.costs.stat * self.costs.scale)
        ip = yield from self.namei(path)
        din = ip.din.copy()
        self.iput(ip)
        return din

    @_syscall
    def readdir(self, path: str) -> Generator:
        """List the live entry names of a directory (excluding '.', '..')."""
        yield from self._enter()
        dp = yield from self.namei(path)
        if not dp.is_dir:
            self.iput(dp)
            raise FsError("ENOTDIR", path)
        yield from dp.lock.acquire()
        try:
            names = []
            for lblk in range(self._dir_nblocks(dp)):
                buf = yield from self._dir_block(dp, lblk)
                names += [name for _at, ino, _reclen, name, _ftype
                          in self._dir_index(buf).scan()
                          if ino and name not in (".", "..")]
                self.cache.brelse(buf)
            yield from self.cpu.compute(
                self.costs.readdir_entry * len(names) * self.costs.scale)
        finally:
            dp.lock.release()
            self.iput(dp)
        return names

    @_syscall
    def truncate(self, path: str) -> Generator:
        """Truncate a regular file to zero length (the O_TRUNC pattern)."""
        yield from self._enter()
        ip = yield from self.namei(path)
        if ip.is_dir:
            self.iput(ip)
            raise FsError("EISDIR", path)
        yield from ip.lock.acquire()
        try:
            runs = yield from self.collect_blocks(ip)
            self.clear_block_pointers(ip)
            ip.din.mtime = int(self.engine.now)
            for daddr, frags in runs:
                self.cache.invalidate(daddr, frags)
            yield from self.scheme.truncated(ip, runs)
        finally:
            ip.lock.release()
            self.iput(ip)

    @_syscall
    def fsync(self, handle: OpenFile) -> Generator:
        """SYNCIO: the handle's file is durable when this returns."""
        yield from self._enter()
        yield from self.scheme.fsync(handle.ip)

    @_syscall
    def sync(self) -> Generator:
        """Flush all dirty state (deferred work included) to the disk."""
        yield from self.scheme.drain()
        yield from self.cache.sync()
