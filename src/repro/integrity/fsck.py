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

It is also what makes an audit of a *stream* of images cheap, at two
levels.  An audit is a function of the bytes it reads, so an
:class:`Auditor` remembers every range its previous audit read and what it
held: an image that holds the same bytes at all of them -- most crash
points differ from the one before by a data-block write fsck never reads
-- gets the previous report back.  Otherwise each pure result of the
previous audit is reused where the bytes it was computed from are
unchanged: a cylinder group's dinodes on its inode table, an allocated
dinode on its inode number, 128-byte record and the indirect blocks its
claim walk read (its ``Dinode`` and claim stream), a directory on its
size, direct pointers and block bytes (its event stream).  The replay is
incremental too: the claim table is the previous one minus the claims of
the dinodes that changed plus their new claims, a phase whose inputs are
all unchanged keeps its findings, and a finding is built again only when
what it says changed (:class:`_Checker`).  Keys are bytes, not store
chunks, because a crash-image store is rewritten in place.  :func:`fsck`
is a one-audit :class:`Auditor`.

This is the repository's one structural checker: crash exploration audits
a sweep's crash points through one :class:`Auditor` (and their repaired
images through a second), the ordering monitor
(:mod:`repro.integrity.monitor`) each durable commit of a recording
through another.
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
    block_frags,
)
from repro.fs.superblock import Superblock
from repro.integrity.invariants import (
    Severity,
    Verdict,
    Violation,
    finding,
    judge,
)


@dataclass
class FsckReport:
    """Outcome of one audit."""

    #: what the checks found, typed, in the order they found it
    findings: list[Violation] = field(default_factory=list)
    #: ino -> Dinode for every allocated inode
    inodes: dict[int, Dinode] = field(default_factory=dict)
    #: path-ish names discovered, for tests: ino -> list of (dir ino, name)
    references: dict[int, list[tuple[int, str]]] = field(default_factory=dict)
    #: the scan of the image's log the audit recovered it through (None
    #: without a journal area): its overlay and the head transaction's
    #: not-yet-committed images
    journal: journal.ScanResult | None = None
    #: the last :meth:`verdict`, kept: an :class:`Auditor` hands an
    #: unchanged image its previous report, and that judgement with it
    _verdict: Verdict | None = field(default=None, init=False, repr=False,
                                     compare=False)

    def verdict(self, guarantees) -> Verdict:
        """The findings judged against *guarantees*
        (:func:`~repro.integrity.invariants.judge`), once per report and
        declaration."""
        verdict = self._verdict
        if verdict is None or verdict.guarantees is not guarantees:
            verdict = self._verdict = judge(self.findings, guarantees)
        return verdict

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


def cg_inode_records(table: bytes, geo: FSGeometry,
                     cg: int) -> list[tuple[int, bytes]]:
    """``(ino, 128-byte record)`` of every allocated dinode in *table*,
    the inode table of cylinder group *cg*, ascending.

    Keeps only the slots whose mode bytes are non-zero -- the slots and
    their order are exactly those a per-slot walk decodes as allocated
    (``tests/integrity/reference_fsck.py``).  The records are the bytes
    :class:`Auditor` remembers a dinode's decode under.
    """
    first = cg * geo.ipg
    return [(first + slot, table[slot * INODE_SIZE:(slot + 1) * INODE_SIZE])
            for slot in allocated_slots(table)
            if first + slot >= ROOT_INO]  # inodes below it are burned


def scan_log(image: SectorStore,
             geo: FSGeometry) -> journal.ScanResult | None:
    """The forward scan of *image*'s log (None when there is no log)."""
    if not geo.journal_frags:
        return None
    spf = geo.frag_size // image.geometry.sector_size
    return journal.scan_journal(
        lambda daddr, n: image.read(daddr * spf, n * spf), geo)


def recovered_image(image: SectorStore, geo: FSGeometry,
                    scan: journal.ScanResult | None) -> SectorStore:
    """*image* as recovery would leave it, given *scan*, the scan of its
    log: a copy-on-write snapshot with every committed image written home,
    one write per contiguous run (*image* itself when the log holds
    nothing committed).

    Only fragments inside the file system are written: no check reads
    past ``geo.total_frags``, and a checksum-valid entry may name any
    fragment number.
    """
    if scan is None or not scan.overlay:
        return image
    recovered = image.snapshot()
    spf = geo.frag_size // image.geometry.sector_size
    overlay = scan.overlay
    frags = sorted(frag for frag in overlay if frag < geo.total_frags)
    start = 0
    for end in range(1, len(frags) + 1):
        if end == len(frags) or frags[end] != frags[end - 1] + 1:
            recovered.write(frags[start] * spf, b"".join(
                overlay[frag] for frag in frags[start:end]))
            start = end
    return recovered


def valid_data_frag(geo: FSGeometry, daddr: int) -> bool:
    """Whether ``geo.data_index(daddr)`` accepts *daddr*, by arithmetic:
    a claim walk asks once per claimed fragment."""
    if not geo.cg_start <= daddr < geo.journal_start:
        return False
    return ((daddr - geo.cg_start) % geo.cg_frags
            >= geo.cg_frags - geo.dfrags_per_cg)


def inode_claim_ops(image: SectorStore, geo: FSGeometry, ino: int,
                    din: Dinode, indirect: list) -> list:
    """Phase-1 op-stream for one inode: the fragment daddrs it claims (in
    the exact order the serial walk visits them) and a ``bad-pointer``
    finding for each pointer that leaves the data area.  ``(daddr,
    bytes)`` of each indirect block the walk reads is appended to
    *indirect*."""
    ops: list = []
    blocks = (din.size + geo.block_size - 1) // geo.block_size
    for lblk in range(min(blocks, geo.NDADDR)):
        daddr = din.direct[lblk]
        if daddr:
            _claim(ops, geo, ino, daddr, block_frags(geo, din, lblk))
    if din.sindirect:
        _claim_indirect(ops, image, geo, ino, indirect, din.sindirect, 1)
    if din.dindirect:
        _claim_indirect(ops, image, geo, ino, indirect, din.dindirect, 2)
    return ops


def _claim(ops: list, geo: FSGeometry, ino: int, daddr: int,
           frags: int) -> None:
    for fragment in range(daddr, daddr + frags):
        if not valid_data_frag(geo, fragment):
            ops.append(finding(
                "bad-pointer",
                f"inode {ino} points outside the data area "
                f"(daddr {fragment})"))
            return
        ops.append(fragment)


def _claim_indirect(ops: list, image: SectorStore, geo: FSGeometry,
                    ino: int, indirect: list, daddr: int,
                    depth: int) -> None:
    # module-level, not a closure: a recursive closure is a reference
    # cycle, and would keep the audited image alive until the cyclic GC
    if not valid_data_frag(geo, daddr):
        ops.append(finding(
            "bad-pointer",
            f"inode {ino} indirect pointer outside data area "
            f"({daddr})"))
        return
    _claim(ops, geo, ino, daddr, geo.frags_per_block)
    raw = read_image_frags(image, geo, daddr, geo.frags_per_block)
    indirect.append((daddr, raw))
    for pointer in struct.unpack(f"<{geo.nindir}I", raw):
        if not pointer:
            continue
        if depth > 1:
            _claim_indirect(ops, image, geo, ino, indirect, pointer,
                            depth - 1)
        else:
            _claim(ops, geo, ino, pointer, geo.frags_per_block)


def _indirect_map(image: SectorStore, geo: FSGeometry, daddr: int,
                  count: int, depth: int) -> list:
    """The first *count* block pointers under indirect block *daddr* of
    *depth* (1: single, 2: double), as :func:`block_map` reports them."""
    if not daddr:
        return [0] * count
    if not valid_data_frag(geo, daddr):
        return [None] * count
    nindir = geo.nindir
    slots = struct.unpack(f"<{nindir}I", read_image_frags(
        image, geo, daddr, geo.frags_per_block))
    if depth == 1:
        return list(slots[:count])
    mapped: list = []
    for slot in slots[:(count + nindir - 1) // nindir]:
        mapped += _indirect_map(image, geo, slot,
                                min(nindir, count - len(mapped)), 1)
    return mapped


def block_map(image: SectorStore, geo: FSGeometry, din: Dinode) -> list:
    """The fragment daddr of each logical block of *din* within its size,
    through its indirect blocks (read as :func:`inode_claim_ops` reads
    them): 0 for a hole, ``None`` for a pointer outside the data area and
    for every block under an indirect pointer outside it."""
    nindir = geo.nindir
    nblocks = min((din.size + geo.block_size - 1) // geo.block_size,
                  geo.NDADDR + nindir + nindir * nindir)
    daddrs = din.direct[:nblocks]
    rest = nblocks - geo.NDADDR
    if rest > 0:
        daddrs += _indirect_map(image, geo, din.sindirect,
                                min(rest, nindir), 1)
        if rest > nindir:
            daddrs += _indirect_map(image, geo, din.dindirect,
                                    rest - nindir, 2)
    for lblk, daddr in enumerate(daddrs):
        if daddr and not valid_data_frag(geo, daddr):
            daddrs[lblk] = None
    return daddrs


def directory_blocks(image: SectorStore, geo: FSGeometry,
                     din: Dinode) -> tuple:
    """The bytes of each block of directory *din*, by logical block
    (:func:`block_map`): ``b""`` for a hole, ``None`` for a pointer
    outside the data area."""
    return tuple(None if daddr is None
                 else read_image_frags(image, geo, daddr, geo.frags_per_block)
                 if daddr else b""
                 for daddr in block_map(image, geo, din))


def directory_events(geo: FSGeometry, ino: int, din: Dinode,
                     blocks: tuple) -> list:
    """Phase-2 event-stream for one directory whose blocks hold *blocks*
    (:func:`directory_blocks`): ``dir-corrupt`` findings plus ``(target,
    name)`` for every live entry (replayed against the global inode table
    by :meth:`_Checker.note_reference`)."""
    events: list = []
    seen_dot = seen_dotdot = False
    for lblk, raw in enumerate(blocks):
        if not raw:
            if raw is not None:
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
                       claimed: int, wanted: int, claims: dict[int, int],
                       known: dict | None = None) -> dict:
    """Phase-4 findings for one cylinder group whose header block holds
    *header*: the group's claimed data fragments are the bits of *claimed*
    (bit ``daddr - geo.cg_data_start(cg)``), its allocated inodes the bits
    of *wanted* (bit ``ino - cg * geo.ipg``), and *claims* maps at least
    each claimed fragment to the inode that owns it.

    Each bitmap is read as one int and XORed against the bits the claims
    (the allocated dinodes) call for; only the differing bits are walked,
    ascending, so the findings are those of a bit-by-bit comparison.  They
    come back in that order, keyed on what each one says: ``("fragment",
    daddr, owner)`` (owner None for a leak), ``("inode", ino, wanted
    bit)`` or ``("magic",)``.  A finding under the same key in *known* (the
    previous audit's result for this group) is reused, not built again.
    """
    known = known or {}
    view = CgView(header, geo)
    if view.magic != CG_MAGIC:
        return {("magic",): known.get(("magic",)) or finding(
            "fs-unreadable", f"cylinder group {cg} bad magic")}
    found: dict = {}
    base = geo.cg_data_start(cg)
    for index in set_bits(view.frag_bits() ^ claimed):
        daddr = base + index
        owner = claims[daddr] if daddr in claims else None
        key = ("fragment", daddr, owner)
        violation = known.get(key)
        if violation is None:
            violation = finding(
                "bitmap-stale", f"fragment {daddr} in use by inode {owner} "
                                f"but marked free (fsck repairs)"
            ) if owner is not None else finding(
                "leak", f"fragment {daddr} marked used but unreferenced "
                        f"(leak)")
        found[key] = violation
    first = cg * geo.ipg
    for index in set_bits(view.inode_bits() ^ wanted):
        ino = first + index
        stale = wanted >> index & 1
        if ino < ROOT_INO or ino == ROOT_INO and not stale:
            continue  # burned inodes; the root is never a leak
        key = ("inode", ino, stale)
        violation = known.get(key)
        if violation is None:
            violation = finding(
                "bitmap-stale", f"inode {ino} allocated but bitmap says free "
                                f"(fsck repairs)"
            ) if stale else finding(
                "leak", f"inode {ino} bitmap used but dinode free (leak)")
        found[key] = violation
    return found


class _Inode:
    """One allocated dinode's pure results: its ``Dinode`` and claim
    stream (:func:`inode_claim_ops`), and the indirect blocks the stream
    was read from."""

    __slots__ = ("record", "din", "ops", "indirect", "is_dir")

    def __init__(self, record: bytes, din: Dinode, ops: list,
                 indirect: list, is_dir: bool) -> None:
        self.record = record
        self.din = din
        self.ops = ops
        self.indirect = indirect
        self.is_dir = is_dir


class _Group:
    """One cylinder group's inode table and what phase 1 made of it."""

    __slots__ = ("table", "inodes", "dinodes", "walk", "wanted", "dirs",
                 "indirect")

    def __init__(self, geo: FSGeometry, cg: int, table: bytes,
                 inodes: dict[int, _Inode]) -> None:
        self.table = table
        #: ino -> _Inode, ascending
        self.inodes = inodes
        self.dinodes = {ino: scanned.din for ino, scanned in inodes.items()}
        #: the claim walks' own findings, in replay order
        self.walk = [op for scanned in inodes.values()
                     for op in scanned.ops if type(op) is not int]
        #: the inode bitmap the allocated dinodes call for
        first = cg * geo.ipg
        self.wanted = bits_of([ino - first for ino in inodes], geo.ipg)
        self.dirs = [ino for ino, scanned in inodes.items() if scanned.is_dir]
        #: the dinodes whose claim stream read blocks outside the table
        self.indirect = [scanned for scanned in inodes.values()
                         if scanned.indirect]


class _Checker:
    """Replays op-streams into the global report (the serial core).

    *previous* is the checker of the audit before over the same layout
    (see :class:`Auditor`), or None.  Each phase takes from it whatever
    the bytes it reads show to be unchanged and keeps, for the audit
    after, exactly what it used:

    * phase 1 a cylinder group whose inode table (and the indirect blocks
      its dinodes' claim streams read) is unchanged, and otherwise each
      dinode whose record is; the claim table -- fragment -> claiming
      inode, and per group the claimed bits -- is the previous one minus
      the claims of the dinodes that changed plus their new claims.  A
      fragment claimed by two inodes is where the replay's order decides
      the verdict: while there is one the table is replayed in full;
    * phase 2 a directory whose size, pointers and blocks are unchanged,
      and the whole phase when every directory and the allocated set is;
    * phase 3 the whole phase when no dinode and no reference changed;
    * phase 4 a group whose header, claims and allocated set are
      unchanged.

    A finding whose inputs are unchanged is the previous audit's
    ``Violation``, keyed on them: ``(fragment, owner, ino)`` for a double
    claim, ``ino`` / ``(ino, nlink, refs)`` for a link finding, and
    :func:`cg_bitmap_findings`' keys.
    """

    def __init__(self, image: SectorStore, geometry: FSGeometry,
                 previous: _Checker | None = None) -> None:
        self.image = image
        self.geo = geometry
        self.report = FsckReport()
        self.previous = previous
        #: phase 1, one per cylinder group
        self.groups: list[_Group] = []
        #: fragment daddr -> the lowest inode claiming it
        self.owner: dict[int, int] = {}
        #: per cylinder group, its claimed data fragments' bits
        self.claimed: list[bytearray] = []
        #: per cylinder group, whether its claims moved since *previous*
        self.dirty: list[bool] = []
        #: whether a dinode or its claim stream changed since *previous*
        self.moved = True
        #: (fragment, owner, ino) -> double-alloc finding; empty unless a
        #: fragment is claimed twice (``contested``)
        self.doubles: dict = {}
        self.contested = False
        #: phase 2: directory ino -> (size, blocks, events)
        self.directories: dict = {}
        #: (ino, events) of each directory in replay order (None before
        #: phase 2 ran) and the findings replaying them gave
        self.dirs: list | None = None
        self.dir_findings: list[Violation] = []
        #: phase 3: key -> finding, in order
        self.links: dict = {}
        #: phase 4, per cylinder group: (header, wanted bits, findings)
        self.bitmaps: list = []

    def kept(self) -> _Checker:
        """This checker, holding only what the next audit may reuse."""
        self.image = self.previous = None
        return self

    # -- phase 1: inodes and block claims ------------------------------------
    def scan_inodes(self) -> None:
        previous = self.previous
        left: list = []  # (ino, _Inode) whose claims leave the table
        joined: list = []  # and whose claims join it
        for cg in range(self.geo.ncg):
            old = previous.groups[cg] if previous is not None else None
            group = self.scan_group(cg, old)
            if old is not None and group is not old:
                before, now = old.inodes, group.inodes
                left += [(ino, scanned) for ino, scanned in before.items()
                         if now.get(ino) is not scanned]
                joined += [(ino, scanned) for ino, scanned in now.items()
                           if before.get(ino) is not scanned]
            self.groups.append(group)
            self.report.inodes.update(group.dinodes)
        self.moved = previous is None or bool(left or joined)
        if previous is None or previous.contested:
            self.replay_claims()
        else:
            self.update_claims(previous, left, joined)

    def scan_group(self, cg: int, old: _Group | None) -> _Group:
        """Group *cg* as the image holds it: *old* itself when nothing
        it was computed from changed."""
        geo = self.geo
        table = read_image_frags(self.image, geo, geo.cg_inode_table(cg),
                                 geo.inode_blocks_per_cg
                                 * geo.frags_per_block)
        if (old is not None and old.table == table
                and all(map(self.unchanged, old.indirect))):
            return old
        before = old.inodes if old is not None else {}
        inodes: dict[int, _Inode] = {}
        for ino, record in cg_inode_records(table, geo, cg):
            scanned = before.get(ino)
            if (scanned is None or scanned.record != record
                    or scanned.indirect and not self.unchanged(scanned)):
                scanned = self.decode_inode(ino, record)
            inodes[ino] = scanned
        return _Group(geo, cg, table, inodes)

    def unchanged(self, scanned: _Inode) -> bool:
        """Whether the indirect blocks *scanned*'s claim stream read still
        hold the bytes it read."""
        geo = self.geo
        return all(read_image_frags(self.image, geo, daddr,
                                    geo.frags_per_block) == raw
                   for daddr, raw in scanned.indirect)

    def decode_inode(self, ino: int, record: bytes) -> _Inode:
        """The dinode in *record* and its claim stream."""
        din = Dinode.unpack(record)
        ftype = din.safe_ftype
        if ftype is None:
            # neither its pointers nor its blocks mean anything
            return _Inode(record, din, [finding(
                "integrity-error",
                f"inode {ino} mode {din.mode:#06x} unparseable")], [], False)
        indirect: list = []
        return _Inode(record, din, inode_claim_ops(self.image, self.geo, ino,
                                                   din, indirect),
                      indirect, ftype is FileType.DIRECTORY)

    def update_claims(self, previous: _Checker, left: list,
                      joined: list) -> None:
        """The previous claim table minus the claims in *left* plus those
        in *joined*; replayed in full if that claims a fragment twice."""
        owner, claimed = previous.owner, previous.claimed  # taken over
        dirty = [False] * self.geo.ncg
        start, size = self.geo.cg_start, self.geo.cg_frags
        skip = size - self.geo.dfrags_per_cg
        for _ino, scanned in left:
            for daddr in scanned.ops:
                # (not ``in owner``: a fragment it claims twice is gone)
                if type(daddr) is int and daddr in owner:
                    del owner[daddr]
                    cg = (daddr - start) // size
                    index = daddr - start - cg * size - skip
                    claimed[cg][index >> 3] &= ~(1 << (index & 7))
                    dirty[cg] = True
        for ino, scanned in joined:
            for daddr in scanned.ops:
                if type(daddr) is not int:
                    continue
                if daddr in owner:
                    if owner[daddr] != ino:
                        self.replay_claims()
                        return
                    continue
                owner[daddr] = ino
                cg = (daddr - start) // size
                index = daddr - start - cg * size - skip
                claimed[cg][index >> 3] |= 1 << (index & 7)
                dirty[cg] = True
        self.owner, self.claimed, self.dirty = owner, claimed, dirty
        for group in self.groups:
            self.report.findings += group.walk

    def replay_claims(self) -> None:
        """The claim table replayed from every claim stream, ascending: a
        fragment claimed twice is a ``double-alloc`` finding against the
        later claimant, in claim order."""
        geo = self.geo
        before = self.previous.doubles if self.previous is not None else {}
        owner: dict[int, int] = {}
        claimed = [bytearray((geo.dfrags_per_cg + 7) // 8)
                   for _cg in range(geo.ncg)]
        start, size = geo.cg_start, geo.cg_frags
        skip = size - geo.dfrags_per_cg
        findings = self.report.findings
        for group in self.groups:
            for ino, scanned in group.inodes.items():
                for daddr in scanned.ops:
                    if type(daddr) is not int:  # the walk's own finding
                        findings.append(daddr)
                    elif daddr not in owner:
                        owner[daddr] = ino
                        # a claim is a valid data fragment: its group and
                        # bit are arithmetic
                        cg = (daddr - start) // size
                        index = daddr - start - cg * size - skip
                        claimed[cg][index >> 3] |= 1 << (index & 7)
                    elif owner[daddr] != ino:
                        key = (daddr, owner[daddr], ino)
                        found = before.get(key) or finding(
                            "double-alloc",
                            f"fragment {daddr} claimed by both inode "
                            f"{owner[daddr]} and inode {ino} (rule 2 "
                            f"violated)")
                        self.doubles[key] = found
                        findings.append(found)
        self.owner, self.claimed = owner, claimed
        self.dirty = [True] * geo.ncg
        self.contested = bool(self.doubles)

    # -- phase 2: directory structure ----------------------------------------
    def scan_directories(self) -> None:
        previous = self.previous
        before = previous.directories if previous is not None else {}
        dirs = self.dirs = []
        for group in self.groups:
            for ino in group.dirs:
                din = group.dinodes[ino]
                blocks = directory_blocks(self.image, self.geo, din)
                kept = before.get(ino)
                if (kept is not None and kept[1] == blocks
                        and kept[0] == din.size):
                    events = kept[2]
                else:
                    events = directory_events(self.geo, ino, din, blocks)
                self.directories[ino] = (din.size, blocks, events)
                dirs.append((ino, events))
        if (previous is not None and previous.dirs == dirs
                and previous.report.inodes.keys()
                == self.report.inodes.keys()):
            self.report.references = previous.report.references
            self.dir_findings = previous.dir_findings
        else:
            for ino, events in dirs:
                self.apply_directory_events(ino, events)
        self.report.findings += self.dir_findings

    def apply_directory_events(self, ino: int, events: list) -> None:
        for event in events:
            if isinstance(event, Violation):
                self.dir_findings.append(event)
            else:
                target, name = event
                self.note_reference(target, ino, name)

    def note_reference(self, target: int, dir_ino: int, name: str) -> None:
        if not (0 <= target < self.geo.total_inodes):
            self.dir_findings.append(finding(
                "dangling-entry", f"directory {dir_ino} entry {name!r} points "
                                  f"to out-of-range inode {target}", target))
            return
        if target not in self.report.inodes:
            self.dir_findings.append(finding(
                "dangling-entry", f"directory {dir_ino} entry {name!r} points "
                                  f"to unallocated inode {target} (rule 3 "
                                  f"violated)", target))
            return
        self.report.references.setdefault(target, []).append((dir_ino, name))

    # -- phase 3: link counts -------------------------------------------------
    def check_links(self) -> None:
        previous = self.previous
        references = self.report.references
        if (previous is not None and not self.moved
                and previous.report.references is references):
            self.links = previous.links
        else:
            before = previous.links if previous is not None else {}
            links = self.links = {}
            for group in self.groups:
                for ino, scanned in group.inodes.items():
                    refs = references.get(ino)
                    if refs is None and ino != ROOT_INO:
                        key = ino  # an orphan
                    else:
                        count = (len(refs) if refs else 0) + scanned.is_dir
                        if scanned.din.nlink == count:
                            continue
                        key = (ino, scanned.din.nlink, count)
                    found = before.get(key)
                    links[key] = found or _link_finding(key)
        self.report.findings += self.links.values()

    # -- phase 4: bitmaps -----------------------------------------------------
    def check_bitmaps(self) -> None:
        geo = self.geo
        before = self.previous.bitmaps if self.previous is not None else []
        for cg, group in enumerate(self.groups):
            header = read_image_frags(self.image, geo, geo.cg_base(cg),
                                      geo.frags_per_block)
            old = before[cg] if before else None
            if (old is not None and not self.dirty[cg] and old[0] == header
                    and old[1] == group.wanted):
                found = old[2]
            else:
                found = cg_bitmap_findings(
                    header, geo, cg,
                    int.from_bytes(self.claimed[cg], "little"),
                    group.wanted, self.owner, old[2] if old else None)
            self.bitmaps.append((header, group.wanted, found))
            self.report.findings += found.values()


def _link_finding(key) -> Violation:
    """Phase 3's finding under *key*: ``ino`` for an orphan, ``(ino,
    nlink, refs)`` for a link count that is not the references'."""
    if type(key) is int:
        return finding("leak", f"inode {key} allocated but unreferenced "
                               f"(orphan; fsck reclaims)")
    ino, nlink, refs = key
    return finding("link-count",
                   f"inode {ino} link count {nlink} "
                   f"{'below' if nlink < refs else 'above'} actual "
                   f"references {refs} (fsck repairs)")


def repair(image: SectorStore, geometry: FSGeometry | None = None,
           auditor: Auditor | None = None) -> FsckReport:
    """Repair an image in place (warnings only); returns the re-audit,
    made by *auditor* (default: a one-shot :func:`fsck`).

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
    claims: list[list[int]] = [[] for _cg in range(geo.ncg)]
    for daddr, owner in checker.owner.items():
        if owner not in orphans:
            # a claim is a valid data fragment: its group is arithmetic
            claims[(daddr - geo.cg_start) // geo.cg_frags].append(daddr)
    for cg, group in enumerate(checker.groups):
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
        wanted = bits_of([*burned, *(ino - first for ino in group.inodes
                                     if ino not in orphans)], geo.ipg)
        for index in set_bits(view.inode_bits() ^ wanted):
            view.set_inode(index, bool(wanted >> index & 1))
        view.free_inodes = geo.ipg - wanted.bit_count()
        image.write(geo.cg_base(cg) * spf, bytes(raw))

    return (auditor or Auditor(geometry)).audit(image)


class _ReadLog:
    """A SectorStore view that remembers what each read of *base*
    returned and answers from ``recovered`` (*base* until the audit has
    recovered the log, :func:`recovered_image`).

    The memo compares raw bytes, the checks judge recovered ones: the log
    is read raw, so raw bytes unchanged at every range read recover to
    the same bytes.
    """

    __slots__ = ("geometry", "base", "recovered", "reads")

    def __init__(self, base: SectorStore) -> None:
        self.geometry = base.geometry
        self.base = self.recovered = base
        #: (lbn, nsectors) -> the raw bytes read there
        self.reads: dict[tuple[int, int], bytes] = {}

    def read(self, lbn: int, nsectors: int = 1) -> bytes:
        data = self.reads[lbn, nsectors] = self.base.read(lbn, nsectors)
        if self.recovered is self.base:
            return data
        return self.recovered.read(lbn, nsectors)


class Auditor:
    """fsck over a stream of images of one file system.

    :meth:`audit` returns exactly what :func:`fsck` returns for the image.
    An audit is a function of the bytes it reads, so an image that holds
    the previous audit's bytes at every range it read -- superblock, log,
    inode tables, directory and indirect blocks, group headers -- gets the
    previous report back.  Otherwise the audit reuses each result of the
    previous one whose bytes have not changed (module docstring).  Results
    the audit does not meet again are dropped, so it holds one image's
    worth of them.  A report, its containers and its ``Dinode`` objects
    may be shared with the next report: read-only.
    """

    def __init__(self, geometry: FSGeometry | None = None) -> None:
        #: where to look for the superblock
        self.geometry = geometry or FSGeometry()
        #: the previous audit's reads, the disk they were read from, and
        #: its report
        self._reads: dict | None = None
        self._disk = None
        self._report: FsckReport | None = None
        #: the previous audit's checker, holding what the next may reuse
        #: (None: the next audit starts cold)
        self._checker: _Checker | None = None

    def audit(self, image: SectorStore) -> FsckReport:
        """Audit *image*; returns the :class:`FsckReport`."""
        reads = self._reads
        if (reads is not None and image.geometry == self._disk
                and all(image.read(lbn, nsectors) == data
                        for (lbn, nsectors), data in reads.items())):
            return self._report
        # an audit that raises leaves nothing half-updated behind
        previous, self._checker, self._reads = self._checker, None, None
        log = _ReadLog(image)
        self._report, self._checker = self._audit(log, previous)
        self._reads, self._disk = log.reads, image.geometry
        return self._report

    def _audit(self, image: _ReadLog, previous: _Checker | None
               ) -> tuple[FsckReport, _Checker | None]:
        try:
            superblock = Superblock.unpack(read_image_frags(
                image, self.geometry, self.geometry.superblock_daddr, 1))
        except ValueError as exc:
            return FsckReport([finding("fs-unreadable",
                                       f"superblock unreadable: {exc}")]), None
        geo = superblock.geometry
        if previous is not None and geo == previous.geo:
            geo = previous.geo  # its derived sizes are already computed
        else:
            previous = None
        # a journaling image is audited in its *recovered* state: the raw
        # image with the committed log written home (itself for
        # journal-less layouts)
        scan = scan_log(image, geo)
        image.recovered = recovered_image(image.base, geo, scan)
        checker = _Checker(image, geo, previous)
        checker.report.journal = scan
        checker.scan_inodes()
        if ROOT_INO in checker.report.inodes:
            checker.scan_directories()
            checker.check_links()
            checker.check_bitmaps()
        else:
            checker.report.findings.append(
                finding("fs-unreadable", "root inode missing"))
        return checker.report, checker.kept()


def fsck(image: SectorStore,
         geometry: FSGeometry | None = None) -> FsckReport:
    """Audit *image*; returns the :class:`FsckReport`."""
    return Auditor(geometry).audit(image)
