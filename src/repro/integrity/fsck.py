"""fsck: audit a (possibly crashed) disk image.

Violations (``errors`` -- structural integrity is lost, fsck cannot decide
the right repair):

* a directory entry points to an unallocated or out-of-range inode (rule 3
  for inodes / rule 1 for rename),
* a data fragment is claimed by two files, or claimed and also outside the
  data area (rule 2),
* an inode holds a pointer outside the volume or into metadata regions,
* directory contents are structurally corrupt.

Repairable inconsistencies (``warnings`` -- classic fsck fixes these
mechanically, the paper's schemes deliberately allow them):

* link count differing from the number of references, in either direction:
  fsck recomputes the reference count from the (intact) directory tree and
  rewrites ``nlink``, so both too-high (remove ordered entry-first) and
  too-low (an existing inode gained an entry -- e.g. a new subdirectory's
  '..' -- before its nlink bump landed) are mechanical repairs.  Note rule 3
  concerns *uninitialized* inodes; pointing at an initialized, live inode
  early only skews the count,
* allocated-but-unreferenced inodes or fragments (leaks),
* bitmap says free but the fragment/inode is referenced (fsck re-marks it),
* bitmap says used but nothing references it.

Parallel mode (pFSCK-style, arxiv 2004.05524): ``fsck(image, jobs=N)`` fans
the per-cylinder-group scans -- inode pointer walks, directory parsing, and
bitmap audits -- over a ``multiprocessing`` pool.  Each phase is split into
a *pure* per-inode pass that reads only the image (safe to run anywhere)
and a *replay* pass that folds the resulting op-stream into the global
claim table and reference map in ascending inode order.  Because the
replay is identical whether the streams were produced inline (serial) or
by workers (parallel), the two modes return byte-identical finding lists
-- same messages, same order.  Workers inherit the image copy-on-write
through the fork context; only op-streams cross the pipe.
"""

from __future__ import annotations

import gc
import multiprocessing
import struct
from dataclasses import dataclass, field
from typing import Optional

from repro.disk.storage import SectorStore
from repro.fs import directory, journal
from repro.fs.alloc import CG_MAGIC, CgView
from repro.fs.layout import Dinode, FileType, FSGeometry, ROOT_INO
from repro.fs.superblock import Superblock


@dataclass
class FsckReport:
    """Outcome of one audit."""

    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    #: ino -> Dinode for every allocated inode
    inodes: dict[int, Dinode] = field(default_factory=dict)
    #: path-ish names discovered, for tests: ino -> list of (dir ino, name)
    references: dict[int, list[tuple[int, str]]] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.errors

    def summary(self) -> str:
        return (f"fsck: {len(self.errors)} errors, {len(self.warnings)} "
                f"warnings, {len(self.inodes)} inodes")


# ----------------------------------------------------------------------
# pure per-inode scans: read the image, emit op-streams
#
# These know nothing about other inodes, so they parallelize freely; all
# cross-inode judgement (double claims, unallocated targets) happens when
# the streams are replayed, in ascending inode order, against the global
# tables.  The monitor (repro.integrity.monitor) reuses them so its claim
# semantics match fsck's exactly.
# ----------------------------------------------------------------------
def read_image_frags(image: SectorStore, geo: FSGeometry,
                     daddr: int, frags: int) -> bytes:
    spf = geo.frag_size // image.geometry.sector_size
    return image.read(daddr * spf, frags * spf)


def read_image_inode(image: SectorStore, geo: FSGeometry,
                     ino: int) -> Dinode:
    block = read_image_frags(image, geo, geo.inode_block_daddr(ino),
                             geo.frags_per_block)
    at = geo.inode_offset_in_block(ino)
    return Dinode.unpack(block[at:at + 128])


def scan_cg_inodes(image: SectorStore, geo: FSGeometry,
                   cg: int) -> list[tuple[int, Dinode]]:
    """All allocated dinodes of one cylinder group, ascending.

    Reads each inode-table block once (not once per inode slot) -- the
    dinodes and their order are exactly what a per-slot walk produces, so
    replaying the result is byte-identical to the slot-by-slot scan.
    """
    table = geo.cg_inode_table(cg)
    per_block = geo.inodes_per_block
    out: list[tuple[int, Dinode]] = []
    for block_index in range(geo.inode_blocks_per_cg):
        raw = read_image_frags(image, geo,
                               table + block_index * geo.frags_per_block,
                               geo.frags_per_block)
        base = cg * geo.ipg + block_index * per_block
        for slot in range(per_block):
            ino = base + slot
            if ino < ROOT_INO:
                continue  # burned inodes
            din = Dinode.unpack(raw[slot * 128:(slot + 1) * 128])
            if din.allocated:
                out.append((ino, din))
    return out


class _FlatImage:
    """Contiguous read-only view of a SectorStore's file-system span.

    The dict-backed reference store is a sparse map of one ``bytes``
    object per sector; forking a pool over a large image makes every
    worker's first pass copy-on-write the whole object heap just by
    touching refcounts.  ``store.flat_view`` hands back one contiguous
    buffer instead: a zero-copy view of the flat store's own backing, or
    a single materialization of the dict store.  Workers share it via
    fork (or one pickle on spawn platforms) and reads are plain slices.
    """

    __slots__ = ("geometry", "_buf")

    def __init__(self, store, total_sectors: int) -> None:
        self.geometry = store.geometry
        self._buf = store.flat_view(total_sectors)

    def read(self, lbn: int, nsectors: int = 1) -> bytes:
        size = self.geometry.sector_size
        # bytes() of a bytes slice is the slice itself; the flat store's
        # memoryview/ndarray slices convert without an extra pass
        return bytes(self._buf[lbn * size:(lbn + nsectors) * size])

    # spawn-platform pools pickle the fsck context; a zero-copy view of
    # the flat store's backing is not picklable, the materialized bytes are
    def __getstate__(self):
        return self.geometry, bytes(self._buf)

    def __setstate__(self, state):
        self.geometry, self._buf = state


class _JournalView:
    """A SectorStore view with the committed journal overlay applied.

    A crashed journaling file system is judged *with* its log: recovery
    replays every committed transaction, so the recoverable state -- the
    state fsck must audit -- is the raw image plus the scan overlay.  The
    view composes reads sector-by-sector (``.read``) and exposes a merged
    ``flat_view`` so :class:`_FlatImage` (the parallel path) bakes the
    overlay in.  Images without a journal area never construct one, so
    non-journaling reports are bit-identical to before.
    """

    __slots__ = ("geometry", "_base", "_sector_overlay")

    def __init__(self, base: SectorStore, geo: FSGeometry,
                 overlay: dict[int, bytes]) -> None:
        self.geometry = base.geometry
        self._base = base
        size = base.geometry.sector_size
        spf = geo.frag_size // size
        self._sector_overlay: dict[int, bytes] = {}
        for frag, data in overlay.items():
            for s in range(spf):
                self._sector_overlay[frag * spf + s] = bytes(
                    data[s * size:(s + 1) * size])

    def read(self, lbn: int, nsectors: int = 1) -> bytes:
        out = []
        for sector in range(lbn, lbn + nsectors):
            hit = self._sector_overlay.get(sector)
            out.append(hit if hit is not None
                       else self._base.read(sector, 1))
        return b"".join(out)

    def flat_view(self, nsectors: int) -> bytes:
        """The base's flat span with the journal overlay applied."""
        size = self.geometry.sector_size
        buf = bytearray(self._base.flat_view(nsectors))
        for sector, data in self._sector_overlay.items():
            if sector < nsectors:
                buf[sector * size:(sector + 1) * size] = data
        return bytes(buf)


def journal_overlay_view(image: SectorStore, geo: FSGeometry):
    """*image* as recovery would leave it (identity when there is no log)."""
    if not geo.journal_frags:
        return image
    spf = geo.frag_size // image.geometry.sector_size
    result = journal.scan_journal(
        lambda daddr, n: image.read(daddr * spf, n * spf), geo)
    if not result.overlay:
        return image
    return _JournalView(image, geo, result.overlay)


def valid_data_frag(geo: FSGeometry, daddr: int) -> bool:
    try:
        geo.data_index(daddr)
        return True
    except ValueError:
        return False


def block_frags(geo: FSGeometry, din: Dinode, lblk: int) -> int:
    """Fragments held by logical block *lblk* (tail blocks may be short)."""
    if din.ftype is FileType.DIRECTORY:
        return geo.frags_per_block
    size = din.size
    last = (size - 1) // geo.block_size if size else 0
    if (lblk < last or lblk >= geo.NDADDR
            or size > geo.NDADDR * geo.block_size):
        return geo.frags_per_block
    tail = size - lblk * geo.block_size
    return max(1, (tail + geo.frag_size - 1) // geo.frag_size)


def inode_claim_ops(image: SectorStore, geo: FSGeometry, ino: int,
                    din: Dinode) -> list[tuple]:
    """Phase-1 op-stream for one inode: ``("frag", daddr)`` claims (in the
    exact order the serial walk visits them) and ``("error", msg)`` for
    pointers that leave the data area."""
    ops: list[tuple] = []

    def claim(daddr: int, frags: int) -> None:
        for fragment in range(daddr, daddr + frags):
            if not valid_data_frag(geo, fragment):
                ops.append(("error",
                            f"inode {ino} points outside the data area "
                            f"(daddr {fragment})"))
                return
            ops.append(("frag", fragment))

    def claim_indirect(daddr: int, depth: int) -> None:
        if not valid_data_frag(geo, daddr):
            ops.append(("error",
                        f"inode {ino} indirect pointer outside data area "
                        f"({daddr})"))
            return
        claim(daddr, geo.frags_per_block)
        raw = read_image_frags(image, geo, daddr, geo.frags_per_block)
        for pointer in struct.unpack(f"<{geo.nindir}I", raw):
            if not pointer:
                continue
            if depth > 1:
                claim_indirect(pointer, depth - 1)
            else:
                claim(pointer, geo.frags_per_block)

    blocks = (din.size + geo.block_size - 1) // geo.block_size
    for lblk in range(min(blocks, geo.NDADDR)):
        daddr = din.direct[lblk]
        if daddr:
            claim(daddr, block_frags(geo, din, lblk))
    if din.sindirect:
        claim_indirect(din.sindirect, depth=1)
    if din.dindirect:
        claim_indirect(din.dindirect, depth=2)
    return ops


def directory_events(image: SectorStore, geo: FSGeometry, ino: int,
                     din: Dinode) -> list[tuple]:
    """Phase-2 event-stream for one directory: structural ``("error", msg)``
    findings plus ``("ref", target, name)`` for every live entry (replayed
    against the global inode table by :meth:`_Checker.note_reference`)."""
    events: list[tuple] = []
    seen_dot = seen_dotdot = False
    blocks = (din.size + geo.block_size - 1) // geo.block_size
    for lblk in range(min(blocks, geo.NDADDR)):
        daddr = din.direct[lblk]
        if not daddr:
            events.append(("error",
                           f"directory {ino} has a hole at block {lblk}"))
            continue
        if not valid_data_frag(geo, daddr):
            continue  # already reported by the claim walk
        raw = read_image_frags(image, geo, daddr, geo.frags_per_block)
        try:
            records = list(directory.iter_records(raw))
        except directory.CorruptDirectory as exc:
            events.append(("error",
                           f"directory {ino} block {lblk} corrupt: {exc}"))
            continue
        for _offset, target, _reclen, name, _ftype in records:
            if not target:
                continue
            if name == ".":
                seen_dot = True
                if target != ino:
                    events.append(("error",
                                   f"directory {ino}: '.' points to "
                                   f"{target}"))
                continue
            if name == "..":
                seen_dotdot = True
            events.append(("ref", target, name))
    if din.size and not (seen_dot and seen_dotdot):
        events.append(("error", f"directory {ino} missing '.' or '..'"))
    return events


def cg_bitmap_findings(image: SectorStore, geo: FSGeometry, cg: int,
                       claims: dict[int, int],
                       allocated) -> list[tuple[str, str]]:
    """Phase-4 findings for one cylinder group: ``(kind, msg)`` tuples,
    kind ``"error"`` or ``"warning"``.  *claims* maps fragment daddr ->
    owning ino (may be restricted to this group's range); *allocated* is a
    container answering ``ino in allocated``."""
    findings: list[tuple[str, str]] = []
    raw = bytearray(read_image_frags(image, geo, geo.cg_base(cg),
                                     geo.frags_per_block))
    view = CgView(raw, geo)
    if view.magic != CG_MAGIC:
        findings.append(("error", f"cylinder group {cg} bad magic"))
        return findings
    base = geo.cg_data_start(cg)
    for index in range(geo.dfrags_per_cg):
        daddr = base + index
        used = view.frag_used(index)
        claimed = daddr in claims
        if claimed and not used:
            findings.append(("warning",
                             f"fragment {daddr} in use by inode "
                             f"{claims[daddr]} but marked free "
                             f"(fsck repairs)"))
        elif used and not claimed:
            findings.append(("warning",
                             f"fragment {daddr} marked used but "
                             f"unreferenced (leak)"))
    for index in range(geo.ipg):
        ino = cg * geo.ipg + index
        if ino < ROOT_INO:
            continue
        used = view.inode_used(index)
        is_alloc = ino in allocated
        if is_alloc and not used:
            findings.append(("warning",
                             f"inode {ino} allocated but bitmap says free "
                             f"(fsck repairs)"))
        elif used and not is_alloc and ino != ROOT_INO:
            findings.append(("warning",
                             f"inode {ino} bitmap used but dinode free "
                             f"(leak)"))
    return findings


class _Checker:
    """Replays op-streams into the global report (the serial core)."""

    def __init__(self, image: SectorStore, geometry: FSGeometry) -> None:
        self.image = image
        self.geo = geometry
        self.report = FsckReport()
        self.claims: dict[int, int] = {}  # fragment daddr -> claiming ino

    # -- raw readers ------------------------------------------------------
    def read_frags(self, daddr: int, frags: int) -> bytes:
        return read_image_frags(self.image, self.geo, daddr, frags)

    def read_inode(self, ino: int) -> Dinode:
        return read_image_inode(self.image, self.geo, ino)

    # -- phase 1: inodes and block claims ------------------------------------
    def scan_inodes(self) -> None:
        for cg in range(self.geo.ncg):
            for ino, din in scan_cg_inodes(self.image, self.geo, cg):
                self.report.inodes[ino] = din
                self.apply_claim_ops(
                    ino, inode_claim_ops(self.image, self.geo, ino, din))

    def apply_claim_ops(self, ino: int, ops: list[tuple]) -> None:
        """Fold one inode's claim stream into the global claim table."""
        for op in ops:
            if op[0] == "error":
                self.report.errors.append(op[1])
                continue
            fragment = op[1]
            owner = self.claims.get(fragment)
            if owner is not None and owner != ino:
                self.report.errors.append(
                    f"fragment {fragment} claimed by both inode {owner} "
                    f"and inode {ino} (rule 2 violated)")
            else:
                self.claims[fragment] = ino

    # -- phase 2: directory structure ----------------------------------------
    def scan_directories(self) -> None:
        for ino, din in self.report.inodes.items():
            if din.ftype is not FileType.DIRECTORY:
                continue
            self.apply_directory_events(
                ino, directory_events(self.image, self.geo, ino, din))

    def apply_directory_events(self, ino: int, events: list[tuple]) -> None:
        for event in events:
            if event[0] == "error":
                self.report.errors.append(event[1])
            else:
                self.note_reference(event[1], ino, event[2])

    def note_reference(self, target: int, dir_ino: int, name: str) -> None:
        if not (0 <= target < self.geo.total_inodes):
            self.report.errors.append(
                f"directory {dir_ino} entry {name!r} points to out-of-range "
                f"inode {target}")
            return
        if target not in self.report.inodes:
            self.report.errors.append(
                f"directory {dir_ino} entry {name!r} points to unallocated "
                f"inode {target} (rule 3 violated)")
            return
        self.report.references.setdefault(target, []).append((dir_ino, name))

    # -- phase 3: link counts -------------------------------------------------
    def check_links(self) -> None:
        for ino, din in self.report.inodes.items():
            if ino != ROOT_INO and not self.report.references.get(ino):
                self.report.warnings.append(
                    f"inode {ino} allocated but unreferenced (orphan; "
                    f"fsck reclaims)")
                continue
            refs = len(self.report.references.get(ino, []))
            if din.ftype is FileType.DIRECTORY:
                refs += 1  # its own '.'
            if din.nlink < refs:
                self.report.warnings.append(
                    f"inode {ino} link count {din.nlink} below actual "
                    f"references {refs} (fsck repairs)")
            elif din.nlink > refs:
                self.report.warnings.append(
                    f"inode {ino} link count {din.nlink} above actual "
                    f"references {refs} (fsck repairs)")

    # -- phase 4: bitmaps -------------------------------------------------------
    def check_bitmaps(self) -> None:
        for cg in range(self.geo.ncg):
            self.apply_bitmap_findings(cg_bitmap_findings(
                self.image, self.geo, cg, self.claims, self.report.inodes))

    def apply_bitmap_findings(self,
                              findings: list[tuple[str, str]]) -> None:
        for kind, msg in findings:
            (self.report.errors if kind == "error"
             else self.report.warnings).append(msg)


# ----------------------------------------------------------------------
# parallel scan workers (pFSCK-style per-cylinder-group fan-out)
# ----------------------------------------------------------------------
@dataclass
class _FsckContext:
    """Read-only state for scan workers.

    Installed as a module-level global before the pool forks so children
    inherit the image copy-on-write; pickled once per worker (via the pool
    initializer) only on platforms without ``fork``.
    """

    image: SectorStore
    geo: FSGeometry


_FSCK_CONTEXT: Optional[_FsckContext] = None


def _fsck_init(context: Optional[_FsckContext] = None) -> None:
    global _FSCK_CONTEXT
    if context is not None:
        _FSCK_CONTEXT = context
    # the worker inherited (or was handed) a large object graph it will
    # only ever read; freezing it keeps the cycle collector from touching
    # refcounts across the copy-on-write heap and dirtying every page
    gc.freeze()


def _scan_cg(cg: int):
    """Pure scans for one cylinder group: allocated dinodes, their claim
    streams, and directory event streams -- all in ascending inode order."""
    ctx = _FSCK_CONTEXT
    inodes: list[tuple[int, Dinode]] = scan_cg_inodes(ctx.image, ctx.geo, cg)
    claim_ops: list[list[tuple]] = [
        inode_claim_ops(ctx.image, ctx.geo, ino, din)
        for ino, din in inodes]
    dir_events: list[tuple[int, list[tuple]]] = []
    for ino, din in inodes:
        if din.ftype is FileType.DIRECTORY:
            dir_events.append(
                (ino, directory_events(ctx.image, ctx.geo, ino, din)))
    return inodes, claim_ops, dir_events


def _scan_cg_bitmaps(payload):
    """Bitmap audit for one cylinder group against the merged claims."""
    cg, claims, allocated = payload
    ctx = _FSCK_CONTEXT
    return cg_bitmap_findings(ctx.image, ctx.geo, cg, claims, allocated)


def _fsck_parallel(image: SectorStore, geo: FSGeometry,
                   jobs: int) -> FsckReport:
    """Fan the per-cg scans over a pool, then merge serially.

    The merge replays every op-stream in ascending inode order, so the
    report is byte-identical to the serial checker's.
    """
    global _FSCK_CONTEXT
    spf = geo.frag_size // image.geometry.sector_size
    flat = _FlatImage(image, geo.total_frags * spf)
    context = _FsckContext(image=flat, geo=geo)
    methods = multiprocessing.get_all_start_methods()
    previous, _FSCK_CONTEXT = _FSCK_CONTEXT, context
    try:
        if "fork" in methods:
            pool_ctx = multiprocessing.get_context("fork")
            pool_kwargs = {"initializer": _fsck_init}
        else:
            pool_ctx = multiprocessing.get_context(None)
            pool_kwargs = {"initializer": _fsck_init, "initargs": (context,)}
        with pool_ctx.Pool(min(jobs, geo.ncg), **pool_kwargs) as pool:
            scans = pool.map(_scan_cg, range(geo.ncg), chunksize=1)
            checker = _Checker(image, geo)
            # phase 1: replay claim streams in global inode order
            for inodes, claim_ops, _events in scans:
                for (ino, din), ops in zip(inodes, claim_ops):
                    checker.report.inodes[ino] = din
                    checker.apply_claim_ops(ino, ops)
            if ROOT_INO not in checker.report.inodes:
                checker.report.errors.append("root inode missing")
                return checker.report
            # phase 2: replay directory events in global inode order
            for _inodes, _ops, events in scans:
                for ino, stream in events:
                    checker.apply_directory_events(ino, stream)
            # phase 3 is a pure reduction over the merged maps
            checker.check_links()
            # phase 4: fan back out with the merged claims, split per cg
            claims_by_cg: list[dict[int, int]] = [{} for _ in range(geo.ncg)]
            for daddr, owner in checker.claims.items():
                claims_by_cg[geo.cg_of_daddr(daddr)][daddr] = owner
            inos_by_cg: list[set] = [set() for _ in range(geo.ncg)]
            for ino in checker.report.inodes:
                inos_by_cg[geo.cg_of_inode(ino)].add(ino)
            payloads = [(cg, claims_by_cg[cg], inos_by_cg[cg])
                        for cg in range(geo.ncg)]
            for findings in pool.map(_scan_cg_bitmaps, payloads,
                                     chunksize=1):
                checker.apply_bitmap_findings(findings)
    finally:
        _FSCK_CONTEXT = previous
    return checker.report


def repair(image: SectorStore,
           geometry: FSGeometry | None = None) -> FsckReport:
    """Repair an image in place (warnings only); returns the re-audit.

    Implements classic fsck's mechanical fixes for the inconsistencies the
    paper's safe schemes deliberately allow: link counts are rewritten to
    the observed reference counts, referenced-but-free bitmap bits are
    re-marked, unreferenced used bits are released, and orphaned inodes are
    cleared with their blocks returned to the free pool.  Images with true
    integrity *errors* are not repairable; callers should check
    :func:`fsck` first.
    """
    geometry = geometry or FSGeometry()
    report = fsck(image, geometry)
    geo = Superblock.unpack(image.read(
        geometry.superblock_daddr * (geometry.frag_size
                                     // image.geometry.sector_size),
        geometry.frag_size // image.geometry.sector_size)).geometry
    spf = geo.frag_size // image.geometry.sector_size
    if geo.journal_frags:
        # recovery proper: physically replay the committed log and retire
        # it, so the repairs below operate on the recovered image and the
        # repaired image mounts with an empty log
        journal.replay_into(
            lambda daddr, n: image.read(daddr * spf, n * spf),
            lambda daddr, data: image.write(daddr * spf, data),
            geo)
    checker = _Checker(image, geo)
    checker.scan_inodes()
    checker.scan_directories()

    # orphan detection cascades: clearing an unreferenced directory removes
    # its entries, which can orphan its children (and drops the '..'
    # reference it contributed to its parent's link count)
    orphans: set[int] = set()
    changed = True
    while changed:
        changed = False
        for ino in checker.report.inodes:
            if ino == ROOT_INO or ino in orphans:
                continue
            live_refs = [dir_ino for dir_ino, _name
                         in checker.report.references.get(ino, [])
                         if dir_ino not in orphans]
            if not live_refs:
                orphans.add(ino)
                changed = True

    def write_inode(ino: int, din: Dinode) -> None:
        daddr = geo.inode_block_daddr(ino)
        block = bytearray(image.read(daddr * spf,
                                     geo.frags_per_block * spf))
        at = geo.inode_offset_in_block(ino)
        block[at:at + 128] = din.pack()
        image.write(daddr * spf, bytes(block))

    # fix link counts (counting only references that survive the orphan
    # sweep); clear orphans
    for ino, din in checker.report.inodes.items():
        if ino in orphans:
            write_inode(ino, Dinode())
            continue
        refs = sum(1 for dir_ino, _name
                   in checker.report.references.get(ino, [])
                   if dir_ino not in orphans)
        if din.ftype is FileType.DIRECTORY:
            refs += 1
        if din.nlink != refs:
            din.nlink = refs
            write_inode(ino, din)

    # rebuild the bitmaps from the surviving (non-orphan) claims
    claims = {daddr for daddr, owner in checker.claims.items()
              if owner not in orphans}
    for cg in range(geo.ncg):
        raw = bytearray(image.read(geo.cg_base(cg) * spf,
                                   geo.frags_per_block * spf))
        view = CgView(raw, geo)
        base = geo.cg_data_start(cg)
        free_frags = free_inodes = 0
        for index in range(geo.dfrags_per_cg):
            wanted = (base + index) in claims
            if view.frag_used(index) != wanted:
                view.set_frags(index, 1, wanted)
            free_frags += 0 if wanted else 1
        for index in range(geo.ipg):
            ino = cg * geo.ipg + index
            wanted = (ino < ROOT_INO and cg == 0) or (
                ino in checker.report.inodes and ino not in orphans)
            if view.inode_used(index) != wanted:
                view.set_inode(index, wanted)
            free_inodes += 0 if wanted else 1
        view.free_frags = free_frags
        view.free_inodes = free_inodes
        image.write(geo.cg_base(cg) * spf, bytes(raw))

    return fsck(image, geometry)


def fsck(image: SectorStore, geometry: FSGeometry | None = None,
         jobs: int = 1) -> FsckReport:
    """Audit *image*; returns the :class:`FsckReport`.

    ``jobs > 1`` fans the per-cylinder-group scans over a process pool
    (pFSCK-style); the finding lists are byte-identical to the serial
    audit's.  Pool workers are daemonic and cannot have children, so when
    this is called from inside another ``multiprocessing`` worker (the
    explorer's verification pool, a fault-sweep grid cell) ``jobs > 1``
    silently degrades to the serial audit -- same report, one process.
    """
    geometry = geometry or FSGeometry()
    spf = geometry.frag_size // image.geometry.sector_size
    try:
        superblock = Superblock.unpack(
            image.read(geometry.superblock_daddr * spf, spf))
    except ValueError as exc:
        report = FsckReport()
        report.errors.append(f"superblock unreadable: {exc}")
        return report
    geo = superblock.geometry
    # a journaling image is audited in its *recovered* state: raw image
    # plus the committed log overlay (identity for journal-less layouts)
    image = journal_overlay_view(image, geo)
    if jobs > 1 and geo.ncg > 1 \
            and not multiprocessing.current_process().daemon:
        return _fsck_parallel(image, geo, jobs)
    checker = _Checker(image, geo)
    checker.scan_inodes()
    if ROOT_INO not in checker.report.inodes:
        checker.report.errors.append("root inode missing")
        return checker.report
    checker.scan_directories()
    checker.check_links()
    checker.check_bitmaps()
    return checker.report
