"""fsck: audit a (possibly crashed) disk image.

Every check names the invariant it guards -- a key of
:data:`repro.integrity.invariants.INVARIANTS` -- at the line that found
the breach: a finding is one typed :class:`~repro.integrity.invariants.
Violation` (key, the catalogue's severity, the sentence, and the inode it
is about where a consumer needs it), and ``FsckReport.errors`` /
``.warnings`` are the findings' messages by severity.  Nothing downstream
reads a sentence to learn what was checked.

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

Structure (after pFSCK, arxiv 2004.05524): each phase is split into a
*pure* per-inode or per-cylinder-group pass that reads only the image and a
*replay* pass that folds the resulting op-stream into the global claim
table and reference map in ascending inode order, so all cross-inode
judgement sits in the replay.  The split is what
``tests/integrity/reference_fsck.py`` is held equal to pass by pass.

It is also what makes an audit of a *stream* of images cheap.  An
:class:`Auditor` remembers each pure result of its previous audit, keyed
on the bytes it was computed from: an allocated dinode on its inode number
and 128-byte record (its ``Dinode`` and claim stream), a directory on its
inode number, size, direct pointers and block bytes (its event stream), a
cylinder group's bitmap findings on its header block and the part of the
claim table and inode set that falls in it.  Consecutive crash points
differ by one media write, so an audit decodes only the records that write
touched; the replay runs in full every time.  Keys are bytes, not store
chunks, because a crash-image store is rewritten in place.  A dinode with
indirect pointers is decoded afresh every audit: its walk reads blocks its
key does not cover.  :func:`fsck` is a one-audit :class:`Auditor`.

This is the repository's one structural checker: crash exploration audits
each chunk of crash points through one :class:`Auditor`, the ordering
monitor (:mod:`repro.integrity.monitor`) each durable commit of a
recording through another.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.disk.storage import SectorStore
from repro.fs import directory, journal
from repro.fs.alloc import CG_MAGIC, CgView, bits_of, set_bits
from repro.fs.layout import (
    INODE_SIZE,
    ROOT_INO,
    Dinode,
    FileType,
    FSGeometry,
    allocated_slots,
)
from repro.fs.superblock import Superblock
from repro.integrity.invariants import Severity, Violation, finding


@dataclass
class FsckReport:
    """Outcome of one audit."""

    #: what the checks found, typed, in the order they found it
    findings: list[Violation] = field(default_factory=list)
    #: ino -> Dinode for every allocated inode
    inodes: dict[int, Dinode] = field(default_factory=dict)
    #: path-ish names discovered, for tests: ino -> list of (dir ino, name)
    references: dict[int, list[tuple[int, str]]] = field(default_factory=dict)

    @property
    def errors(self) -> list[str]:
        """The corruption-class findings' messages."""
        return [found.message for found in self.findings
                if found.severity is Severity.CORRUPTION]

    @property
    def warnings(self) -> list[str]:
        """The repairable findings' messages."""
        return [found.message for found in self.findings
                if found.severity is not Severity.CORRUPTION]

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
# tables.
# ----------------------------------------------------------------------
def read_image_frags(image: SectorStore, geo: FSGeometry,
                     daddr: int, frags: int) -> bytes:
    spf = geo.frag_size // image.geometry.sector_size
    return image.read(daddr * spf, frags * spf)


def cg_inode_records(image: SectorStore, geo: FSGeometry,
                     cg: int) -> list[tuple[int, bytes]]:
    """``(ino, 128-byte record)`` of every allocated dinode of one
    cylinder group, ascending.

    Reads the group's inode table once and keeps only the slots whose mode
    bytes are non-zero -- the slots and their order are exactly those a
    per-slot walk decodes as allocated
    (``tests/integrity/reference_fsck.py``).  The records are the keys
    :class:`Auditor` remembers a dinode's decode under.
    """
    raw = read_image_frags(image, geo, geo.cg_inode_table(cg),
                           geo.inode_blocks_per_cg * geo.frags_per_block)
    first = cg * geo.ipg
    return [(first + slot, raw[slot * INODE_SIZE:(slot + 1) * INODE_SIZE])
            for slot in allocated_slots(raw)
            if first + slot >= ROOT_INO]  # inodes below it are burned


class _JournalView:
    """A SectorStore view with the committed journal overlay applied.

    A crashed journaling file system is judged *with* its log: recovery
    replays every committed transaction, so the recoverable state -- the
    state fsck must audit -- is the raw image plus the scan overlay.  A
    read is one range read of the base with the overlaid sectors patched
    in.  Images without a journal area never construct one, so
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
        out = self._base.read(lbn, nsectors)
        overlay = self._sector_overlay
        hits = [sector for sector in range(lbn, lbn + nsectors)
                if sector in overlay]
        if not hits:
            return out
        out = bytearray(out)
        size = self.geometry.sector_size
        for sector in hits:
            at = (sector - lbn) * size
            out[at:at + size] = overlay[sector]
        return bytes(out)


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
    """Whether ``geo.data_index(daddr)`` accepts *daddr*, by arithmetic:
    a claim walk asks once per claimed fragment."""
    if not geo.cg_start <= daddr < geo.journal_start:
        return False
    return ((daddr - geo.cg_start) % geo.cg_frags
            >= geo.cg_frags - geo.dfrags_per_cg)


def block_frags(geo: FSGeometry, din: Dinode, lblk: int) -> int:
    """Fragments held by logical block *lblk* (tail blocks may be short)."""
    if din.safe_ftype is FileType.DIRECTORY:
        return geo.frags_per_block
    size = din.size
    last = (size - 1) // geo.block_size if size else 0
    if (lblk < last or lblk >= geo.NDADDR
            or size > geo.NDADDR * geo.block_size):
        return geo.frags_per_block
    tail = size - lblk * geo.block_size
    return max(1, (tail + geo.frag_size - 1) // geo.frag_size)


def inode_claim_ops(image: SectorStore, geo: FSGeometry, ino: int,
                    din: Dinode) -> list:
    """Phase-1 op-stream for one inode: the fragment daddrs it claims (in
    the exact order the serial walk visits them) and a ``bad-pointer``
    finding for each pointer that leaves the data area."""
    ops: list = []

    def claim(daddr: int, frags: int) -> None:
        for fragment in range(daddr, daddr + frags):
            if not valid_data_frag(geo, fragment):
                ops.append(finding(
                    "bad-pointer",
                    f"inode {ino} points outside the data area "
                    f"(daddr {fragment})"))
                return
            ops.append(fragment)

    def claim_indirect(daddr: int, depth: int) -> None:
        if not valid_data_frag(geo, daddr):
            ops.append(finding(
                "bad-pointer",
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


def directory_blocks(image: SectorStore, geo: FSGeometry,
                     din: Dinode) -> tuple:
    """The bytes of each block of directory *din*, by logical block:
    ``None`` for a hole or a pointer outside the data area."""
    nblocks = (din.size + geo.block_size - 1) // geo.block_size
    return tuple(read_image_frags(image, geo, daddr, geo.frags_per_block)
                 if daddr and valid_data_frag(geo, daddr) else None
                 for daddr in din.direct[:min(nblocks, geo.NDADDR)])


def directory_events(geo: FSGeometry, ino: int, din: Dinode,
                     blocks: tuple) -> list:
    """Phase-2 event-stream for one directory whose blocks hold *blocks*
    (:func:`directory_blocks`): ``dir-corrupt`` findings plus ``(target,
    name)`` for every live entry (replayed against the global inode table
    by :meth:`_Checker.note_reference`)."""
    events: list = []
    seen_dot = seen_dotdot = False
    for lblk, raw in enumerate(blocks):
        if raw is None:
            if not din.direct[lblk]:
                events.append(finding(
                    "dir-corrupt",
                    f"directory {ino} has a hole at block {lblk}"))
            continue  # a bad pointer: already reported by the claim walk
        try:
            records = list(directory.iter_records(raw))
        except directory.CorruptDirectory as exc:
            events.append(finding(
                "dir-corrupt", f"directory {ino} block {lblk} corrupt: {exc}"))
            continue
        for _offset, target, _reclen, name, _ftype in records:
            if not target:
                continue
            if name == ".":
                seen_dot = True
                if target != ino:
                    events.append(finding(
                        "dir-corrupt",
                        f"directory {ino}: '.' points to {target}"))
                continue
            if name == "..":
                seen_dotdot = True
            events.append((target, name))
    if din.size and not (seen_dot and seen_dotdot):
        events.append(finding("dir-corrupt",
                              f"directory {ino} missing '.' or '..'"))
    return events


def cg_bitmap_findings(header: bytes, geo: FSGeometry, cg: int,
                       claims: dict[int, int],
                       allocated) -> list[Violation]:
    """Phase-4 findings for one cylinder group whose header block holds
    *header*.  *claims* maps fragment daddr -> owning ino and *allocated*
    iterates allocated inode numbers; either may be restricted to this
    group's range (the rest is ignored).

    Each bitmap is read as one int and XORed against the bits the claims
    (the allocated dinodes) call for; only the differing bits are walked,
    ascending, so the findings are those of a bit-by-bit comparison.
    """
    view = CgView(header, geo)
    if view.magic != CG_MAGIC:
        return [finding("fs-unreadable", f"cylinder group {cg} bad magic")]
    findings: list[Violation] = []
    base, limit = geo.cg_data_start(cg), geo.dfrags_per_cg
    claimed = bits_of([daddr - base for daddr in claims
                       if 0 <= daddr - base < limit], limit)
    for index in set_bits(view.frag_bits() ^ claimed):
        daddr = base + index
        if daddr in claims:
            findings.append(finding(
                "bitmap-stale",
                f"fragment {daddr} in use by inode {claims[daddr]} but "
                f"marked free (fsck repairs)"))
        else:
            findings.append(finding(
                "leak", f"fragment {daddr} marked used but unreferenced "
                        f"(leak)"))
    first, limit = cg * geo.ipg, geo.ipg
    wanted = bits_of([ino - first for ino in allocated
                      if 0 <= ino - first < limit], limit)
    for index in set_bits(view.inode_bits() ^ wanted):
        ino = first + index
        if ino < ROOT_INO:
            continue  # burned inodes
        if wanted >> index & 1:
            findings.append(finding(
                "bitmap-stale",
                f"inode {ino} allocated but bitmap says free (fsck repairs)"))
        elif ino != ROOT_INO:
            findings.append(finding(
                "leak", f"inode {ino} bitmap used but dinode free (leak)"))
    return findings


class _Checker:
    """Replays op-streams into the global report (the serial core).

    Each pure result is looked up in *previous* (the per-record results of
    the audit before, see :class:`Auditor`) before it is computed, and is
    kept in ``results`` for the audit after.  The three kinds of key --
    ``(ino, record)``, ``(ino, size, pointers, blocks)`` and ``(cg,
    header, claims, inodes)`` -- differ in length or in the type of their
    second element, so they share one dict without colliding.
    """

    def __init__(self, image: SectorStore, geometry: FSGeometry,
                 previous: dict | None = None) -> None:
        self.image = image
        self.geo = geometry
        self.report = FsckReport()
        self.claims: dict[int, int] = {}  # fragment daddr -> claiming ino
        self.previous = {} if previous is None else previous
        self.results: dict = {}

    def found(self, key: str, message: str,
              subject: int | None = None) -> None:
        self.report.findings.append(finding(key, message, subject))

    # -- phase 1: inodes and block claims ------------------------------------
    def scan_inodes(self) -> None:
        previous, results = self.previous, self.results
        for cg in range(self.geo.ncg):
            for key in cg_inode_records(self.image, self.geo, cg):
                scanned = previous.get(key)
                if scanned is None:
                    scanned = self.decode_inode(*key)
                din, ops = scanned
                if not (din.sindirect or din.dindirect):
                    # its walk read no block outside the key
                    results[key] = scanned
                self.report.inodes[key[0]] = din
                self.apply_claim_ops(key[0], ops)

    def decode_inode(self, ino: int, record: bytes) -> tuple[Dinode, list]:
        """The dinode in *record* and its claim stream."""
        din = Dinode.unpack(record)
        if din.safe_ftype is None:
            # neither its pointers nor its blocks mean anything
            return din, [finding("integrity-error",
                                 f"inode {ino} mode {din.mode:#06x} "
                                 f"unparseable")]
        return din, inode_claim_ops(self.image, self.geo, ino, din)

    def apply_claim_ops(self, ino: int, ops: list) -> None:
        """Fold one inode's claim stream into the global claim table."""
        for fragment in ops:
            if isinstance(fragment, Violation):  # the walk's own finding
                self.report.findings.append(fragment)
                continue
            owner = self.claims.get(fragment)
            if owner is not None and owner != ino:
                self.found("double-alloc",
                           f"fragment {fragment} claimed by both inode "
                           f"{owner} and inode {ino} (rule 2 violated)")
            else:
                self.claims[fragment] = ino

    # -- phase 2: directory structure ----------------------------------------
    def scan_directories(self) -> None:
        previous, results = self.previous, self.results
        for ino, din in self.report.inodes.items():
            if din.safe_ftype is not FileType.DIRECTORY:
                continue
            blocks = directory_blocks(self.image, self.geo, din)
            key = (ino, din.size, tuple(din.direct), blocks)
            events = previous.get(key)
            if events is None:
                events = directory_events(self.geo, ino, din, blocks)
            results[key] = events
            self.apply_directory_events(ino, events)

    def apply_directory_events(self, ino: int, events: list) -> None:
        for event in events:
            if isinstance(event, Violation):
                self.report.findings.append(event)
            else:
                target, name = event
                self.note_reference(target, ino, name)

    def note_reference(self, target: int, dir_ino: int, name: str) -> None:
        if not (0 <= target < self.geo.total_inodes):
            self.found("dangling-entry",
                       f"directory {dir_ino} entry {name!r} points to "
                       f"out-of-range inode {target}", target)
            return
        if target not in self.report.inodes:
            self.found("dangling-entry",
                       f"directory {dir_ino} entry {name!r} points to "
                       f"unallocated inode {target} (rule 3 violated)", target)
            return
        self.report.references.setdefault(target, []).append((dir_ino, name))

    # -- phase 3: link counts -------------------------------------------------
    def check_links(self) -> None:
        for ino, din in self.report.inodes.items():
            if ino != ROOT_INO and not self.report.references.get(ino):
                self.found("leak",
                           f"inode {ino} allocated but unreferenced (orphan; "
                           f"fsck reclaims)")
                continue
            refs = len(self.report.references.get(ino, []))
            if din.safe_ftype is FileType.DIRECTORY:
                refs += 1  # its own '.'
            if din.nlink < refs:
                self.found("link-count",
                           f"inode {ino} link count {din.nlink} below actual "
                           f"references {refs} (fsck repairs)")
            elif din.nlink > refs:
                self.found("link-count",
                           f"inode {ino} link count {din.nlink} above actual "
                           f"references {refs} (fsck repairs)")

    # -- phase 4: bitmaps -------------------------------------------------------
    def by_group(self, dead=()) -> tuple[list[dict[int, int]],
                                         list[list[int]]]:
        """The claim table and the allocated inode numbers bucketed by
        cylinder group, one pass each, without the inodes in *dead* and
        what they claim."""
        geo = self.geo
        start, size = geo.cg_start, geo.cg_frags
        claims: list[dict[int, int]] = [{} for _cg in range(geo.ncg)]
        for daddr, owner in self.claims.items():
            if owner not in dead:
                # a claim is a valid data fragment: its group is arithmetic
                claims[(daddr - start) // size][daddr] = owner
        inodes: list[list[int]] = [[] for _cg in range(geo.ncg)]
        for ino in self.report.inodes:
            if ino not in dead:
                inodes[ino // geo.ipg].append(ino)
        return claims, inodes

    def check_bitmaps(self) -> None:
        previous, results = self.previous, self.results
        geo = self.geo
        claims, inodes = self.by_group()
        for cg in range(geo.ncg):
            header = read_image_frags(self.image, geo, geo.cg_base(cg),
                                      geo.frags_per_block)
            key = (cg, header, tuple(claims[cg].items()), tuple(inodes[cg]))
            found = previous.get(key)
            if found is None:
                found = cg_bitmap_findings(header, geo, cg, claims[cg],
                                           inodes[cg])
            results[key] = found
            self.report.findings += found


def repair(image: SectorStore,
           geometry: FSGeometry | None = None) -> FsckReport:
    """Repair an image in place (warnings only); returns the re-audit.

    Implements classic fsck's mechanical fixes for the inconsistencies the
    paper's safe schemes deliberately allow: link counts are rewritten to
    the observed reference counts, referenced-but-free bitmap bits are
    re-marked, unreferenced used bits are released, and orphaned inodes are
    cleared with their blocks returned to the free pool.  Images with true
    integrity *errors* are not repairable; callers should check
    :func:`fsck` first (nothing here audits before it writes: an unreadable
    superblock is ``Superblock.unpack``'s ``ValueError``).
    """
    geometry = geometry or FSGeometry()
    geo = Superblock.unpack(read_image_frags(
        image, geometry, geometry.superblock_daddr, 1)).geometry
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
        block[at:at + INODE_SIZE] = din.pack()
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
        if din.safe_ftype is FileType.DIRECTORY:
            refs += 1
        if din.nlink != refs:
            din.nlink = refs
            write_inode(ino, din)

    # rebuild the bitmaps from the surviving (non-orphan) claims and
    # inodes: diff the wanted bits against the stored ones, flip those
    claims, inodes = checker.by_group(dead=orphans)
    for cg in range(geo.ncg):
        raw = bytearray(image.read(geo.cg_base(cg) * spf,
                                   geo.frags_per_block * spf))
        view = CgView(raw, geo)
        base, first = geo.cg_data_start(cg), cg * geo.ipg
        wanted = bits_of([daddr - base for daddr in claims[cg]],
                         geo.dfrags_per_cg)
        for index in set_bits(view.frag_bits() ^ wanted):
            view.set_frags(index, 1, bool(wanted >> index & 1))
        view.free_frags = geo.dfrags_per_cg - wanted.bit_count()
        burned = range(ROOT_INO) if cg == 0 else ()
        wanted = bits_of([*burned, *(ino - first for ino in inodes[cg])],
                         geo.ipg)
        for index in set_bits(view.inode_bits() ^ wanted):
            view.set_inode(index, bool(wanted >> index & 1))
        view.free_inodes = geo.ipg - wanted.bit_count()
        image.write(geo.cg_base(cg) * spf, bytes(raw))

    return fsck(image, geometry)


class Auditor:
    """fsck over a stream of images of one file system.

    :meth:`audit` returns exactly what :func:`fsck` returns for the image,
    and reuses each per-record result of the previous audit whose bytes
    have not changed (module docstring).  Results the audit does not meet
    again are dropped, so it holds one image's worth of them.  The
    ``Dinode`` objects of its reports are shared with the next report:
    read-only.
    """

    def __init__(self, geometry: FSGeometry | None = None) -> None:
        #: where to look for the superblock
        self.geometry = geometry or FSGeometry()
        #: the superblock's layout the remembered results were computed in
        self._geo: FSGeometry | None = None
        #: the previous audit's per-record results, keyed on their bytes
        self._results: dict = {}

    def audit(self, image: SectorStore) -> FsckReport:
        """Audit *image*; returns the :class:`FsckReport`."""
        previous, self._results = self._results, {}
        try:
            superblock = Superblock.unpack(read_image_frags(
                image, self.geometry, self.geometry.superblock_daddr, 1))
        except ValueError as exc:
            return FsckReport([finding("fs-unreadable",
                                       f"superblock unreadable: {exc}")])
        geo = superblock.geometry
        if geo == self._geo:
            geo = self._geo  # its derived sizes are already computed
        else:
            previous, self._geo = {}, geo
        # a journaling image is audited in its *recovered* state: raw image
        # plus the committed log overlay (identity for journal-less layouts)
        image = journal_overlay_view(image, geo)
        checker = _Checker(image, geo, previous)
        self._results = checker.results
        checker.scan_inodes()
        if ROOT_INO not in checker.report.inodes:
            checker.found("fs-unreadable", "root inode missing")
            return checker.report
        checker.scan_directories()
        checker.check_links()
        checker.check_bitmaps()
        return checker.report


def fsck(image: SectorStore,
         geometry: FSGeometry | None = None) -> FsckReport:
    """Audit *image*; returns the :class:`FsckReport`."""
    return Auditor(geometry).audit(image)
