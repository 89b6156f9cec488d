"""Online ordering-rule monitor: flag violations *as commits land*.

The paper's schemes promise that metadata writes reach the platters in an
order that keeps the image recoverable at every instant.  Crash
exploration checks this after the fact -- fsck over a sweep of synthesized
crash images.  The monitor (SquirrelFS-style, arxiv 2406.09649) checks it
*online*: it subscribes to the drive's ``on_write_commit`` stream, mirrors
every durable sector prefix into a private shadow image, and re-derives
exactly the structural state fsck would compute -- inode claims, directory
entries, reference sets -- incrementally, touching only what each commit
changed.  The moment a commit lands out of order, the affected structure
is inconsistent *on the shadow image itself* and a typed
:class:`OrderingViolation` fires, naming the rule, the offending write
window (lbn + sectors), and the simulated instant.

The rule catalogue is the paper's three ordering rules plus the structural
soundness they protect:

* ``dirent-uninitialized`` -- rule 3: never point a directory entry at an
  uninitialized (unallocated) inode,
* ``free-while-referenced`` -- rule 1: never reset the old pointer (free
  the inode) while directory entries still reference it,
* ``reuse-before-nullify`` -- rule 2: never reuse a fragment before the
  previous owner's pointer to it is nullified,
* ``pointer-invalid`` -- an inode pointer left the data area,
* ``dir-unsound`` -- a referenced directory block must always parse, hold
  its '.'/'..' pair, and have no holes,
* ``fs-unsound`` -- the superblock and cylinder-group headers must stay
  readable,
* ``journal-checkpoint-order`` -- write-ahead journaling's one ordering
  obligation: a journaled block image must not reach its home location
  before the transaction's commit record is durable.

Journaling support: for layouts with a journal area the monitor judges the
*recoverable* state -- its shadow image plus the committed log overlay
(recovery replays the log, so that composite is what fsck would audit).
Journal-region commits trigger a rescan; home frags covered by the overlay
are effectively unchanged by their own checkpoint writes, so lazy
checkpointing never trips a rule.

Per-scheme rulesets derive from :class:`~repro.ordering.guarantees.
CrashGuarantees`: every rule above guards corruption-class state, so a hit
is *expected* only for schemes declaring ``allows_corruption`` (No Order).
Repairable wear -- link skew, leaks, bitmap drift -- is deliberately not
monitored: the safe schemes produce it by design and classic fsck repairs
it mechanically.

Soft updates' rollback windows need no special casing: the scheme writes
*rolled-back* buffer versions precisely so every media state is
consistent, which is exactly what the shadow image sees.

Correctness argument (proved empirically by the monitor-vs-fsck
differential suite, ``tests/integrity/test_monitor_differential.py``): the
corruption-class predicates only change when a sector reaches the
platters; the base image is clean; the monitor re-checks every predicate
whose inputs a commit changed, using the same op-stream helpers fsck
itself runs (:func:`repro.integrity.fsck.inode_claim_ops`).  Hence "no
violation at any commit" agrees with "no fsck error at any commit
boundary", and mid-window sector prefixes are covered because each
prefix's prerequisites landed in earlier windows (the sweep's sampled
mid-transfer points check this independently).

The monitor is an *observer*: it reads only its own shadow state and the
callback arguments, schedules nothing, and never touches machine state --
attaching it leaves the simulation timeline bit-identical
(``tests/integrity/test_monitor.py`` holds the proof, same discipline as
``tests/obs/test_equivalence.py``).  NVRAM's crash state lives partly in
a battery-backed memory mirror, not on the media, so a media-stream
monitor cannot judge it (:func:`monitor_supported`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional

from repro.fs import directory, journal
from repro.fs.alloc import CG_MAGIC, CgView
from repro.fs.layout import Dinode, FileType, FSGeometry, INODE_SIZE, ROOT_INO
from repro.fs.superblock import Superblock
from repro.integrity.fsck import inode_claim_ops, valid_data_frag
from repro.ordering.guarantees import SAFE_DEFAULT, CrashGuarantees

#: rule key -> what it protects
RULES = {
    "dirent-uninitialized": "rule 3: never point a directory entry at an "
                            "uninitialized inode",
    "free-while-referenced": "rule 1: never free an inode while directory "
                             "entries still reference it",
    "reuse-before-nullify": "rule 2: never reuse a fragment before the old "
                            "owner's pointer is nullified",
    "pointer-invalid": "inode pointers must stay inside the data area",
    "dir-unsound": "referenced directory blocks must parse and keep "
                   "'.'/'..'",
    "fs-unsound": "superblock and cylinder-group headers must stay "
                  "readable",
    "journal-checkpoint-order": "a journaled block must not be "
                                "checkpointed home before its commit "
                                "record is durable",
}


@dataclass(frozen=True)
class OrderingViolation:
    """One ordering-rule hit, attributed to the commit that caused it."""

    rule: str
    message: str
    #: simulated instant the offending media operation ended
    when: float
    #: the offending write window
    lbn: int
    nsectors: int
    #: within the scheme's CrashGuarantees declaration (No Order only)
    expected: bool

    def format(self) -> str:
        flag = "" if self.expected else " [UNEXPECTED]"
        return (f"t={self.when:.6f} write lbn {self.lbn}+{self.nsectors} "
                f"{self.rule}: {self.message}{flag}")


@dataclass
class _Tracked:
    """Everything the monitor derived from one allocated inode."""

    din: Dinode
    raw: bytes
    claims: set = field(default_factory=set)
    indirect: set = field(default_factory=set)
    dir_blocks: list = field(default_factory=list)


class _EffectiveImage:
    """The monitor's *recoverable* view: shadow image + committed log.

    Recovery replays committed journal transactions over home locations,
    so the state every structural predicate must judge is the composite,
    overlay-first.  Duck-types the SectorStore read interface
    (:func:`repro.integrity.fsck.read_image_frags` and friends)."""

    __slots__ = ("_monitor", "geometry")

    def __init__(self, monitor: "OrderingMonitor") -> None:
        self._monitor = monitor
        self.geometry = monitor._image.geometry

    def read(self, lbn: int, nsectors: int = 1) -> bytes:
        monitor = self._monitor
        overlay = monitor._j_overlay
        if not overlay:
            return monitor._image.read(lbn, nsectors)
        spf = monitor._spf
        sector_size = monitor._sector_size
        out = []
        for sector in range(lbn, lbn + nsectors):
            data = overlay.get(sector // spf)
            if data is None:
                out.append(monitor._image.read(sector, 1))
            else:
                at = (sector % spf) * sector_size
                out.append(bytes(data[at:at + sector_size]))
        return b"".join(out)


def monitor_supported(machine) -> bool:
    """True when the scheme's crash state lives entirely on the media.

    NVRAM keeps battery-backed survivors in memory
    (``scheme.apply_to_image``), so its media stream alone is not the
    crash state and the monitor would mis-fire.
    """
    return getattr(machine.scheme, "apply_to_image", None) is None


class OrderingMonitor:
    """Declarative dependency-rule engine over the write-commit stream.

    Chainable observer: :meth:`attach` preserves any already-installed
    ``on_write_commit`` callback (the media write-log) and calls it first,
    so recording and monitoring compose.
    """

    def __init__(self, geometry: FSGeometry,
                 guarantees: CrashGuarantees = SAFE_DEFAULT) -> None:
        self.geo = geometry
        self.guarantees = guarantees
        self.violations: list[OrderingViolation] = []
        self.windows_seen = 0
        self.commits_applied = 0
        # shadow image + derived structural state (set at attach)
        self._image = None
        self._sector_size = 0
        self._spf = 0
        self._tracked: dict[int, _Tracked] = {}
        #: fragment -> set of claiming inos (rule 2 transitions)
        self._frag_owners: dict[int, set] = {}
        #: fragment -> ino whose indirect block lives there
        self._indirect_owner: dict[int, int] = {}
        #: fragment -> block daddr of the registered directory block
        self._dir_frag_block: dict[int, int] = {}
        #: block daddr -> owning directory ino
        self._block_owner: dict[int, int] = {}
        #: block daddr -> {entry offset: (name, target ino)} ('.' excluded)
        self._block_entries: dict[int, dict] = {}
        #: block daddr -> (has '.', has '..')
        self._block_dots: dict[int, tuple] = {}
        #: target ino -> {(block daddr, offset): (dir ino, name)}
        self._refs_to: dict[int, dict] = {}
        #: target ino -> {(block daddr, offset)} awaiting allocation
        self._dangling: dict[int, set] = {}
        #: condition keys currently true (violations fire on transitions)
        self._active: set = set()
        #: committed-but-unretired journal images: home frag -> logged bytes
        self._j_overlay: dict[int, bytes] = {}
        #: the head transaction's not-yet-committed images (checkpoint rule)
        self._j_open: dict[int, bytes] = {}
        self._eff: Optional[_EffectiveImage] = None
        self._window = (0.0, -1, 0)
        self._chained = None
        self._attached = None

    # -- lifecycle ----------------------------------------------------------
    def attach(self, disk) -> None:
        """Snapshot the current media state and start watching commits."""
        if self._attached is not None:
            raise RuntimeError("monitor already attached")
        self._image = disk.storage.snapshot()
        self._sector_size = disk.geometry.sector_size
        self._spf = self.geo.frag_size // self._sector_size
        self._eff = _EffectiveImage(self)
        if self.geo.journal_frags:
            self._j_overlay, self._j_open = self._journal_rescan()
        self._bootstrap()
        self._chained = disk.on_write_commit
        disk.on_write_commit = self._on_commit
        self._attached = disk

    def detach(self, disk) -> None:
        disk.on_write_commit = self._chained
        self._chained = None
        self._attached = None

    # -- reporting ------------------------------------------------------------
    @property
    def clean(self) -> bool:
        return not self.violations

    @property
    def unexpected(self) -> list[OrderingViolation]:
        return [v for v in self.violations if not v.expected]

    def summary(self) -> str:
        return (f"monitor: {self.windows_seen} windows, "
                f"{self.commits_applied} durable commits, "
                f"{len(self.violations)} ordering violations "
                f"({len(self.unexpected)} outside the declaration)")

    # -- the observer -----------------------------------------------------------
    def _on_commit(self, lbn: int, data: bytes, transfer_start: float,
                   sector_period: float, end: float, durable: int) -> None:
        if self._chained is not None:
            self._chained(lbn, data, transfer_start, sector_period, end,
                          durable)
        self.windows_seen += 1
        if not durable:
            return  # a transient fault's pass left nothing on the platters
        self.commits_applied += 1
        self._window = (end, lbn, len(data) // self._sector_size)
        self._image.write_partial(lbn, data, durable)
        self._scan_commit(lbn, durable)

    def _fire(self, rule: str, message: str) -> None:
        when, lbn, nsectors = self._window
        self.violations.append(OrderingViolation(
            rule=rule, message=message, when=when, lbn=lbn,
            nsectors=nsectors,
            expected=self.guarantees.allows_corruption))

    def _fire_once(self, key: tuple, rule: str, message: str) -> None:
        """Fire on the transition into a (persisting) bad state."""
        if key not in self._active:
            self._active.add(key)
            self._fire(rule, message)

    # -- commit digestion ----------------------------------------------------
    def _scan_commit(self, lbn: int, durable: int) -> None:
        """Re-check every predicate whose inputs this commit changed."""
        sectors = list(range(lbn, lbn + durable))
        if not self.geo.journal_frags:
            self._digest(sectors)
            return
        home = [sector for sector in sectors
                if self._classify(sector // self._spf)[0] != "journal"]
        if home:
            self._check_checkpoint_order(home)
        if len(home) != durable:
            # the log changed: rescan it and re-derive every home frag
            # whose *effective* (recoverable) content the change moved
            home += self._journal_refresh()
        self._digest(home)

    def _digest(self, sectors: list[int]) -> None:
        inode_changes: list[tuple[int, bytes]] = []
        dir_blocks: set = set()
        indirect_owners: set = set()
        cg_headers: set = set()
        sb_touched = False
        per_sector_inodes = self._sector_size // INODE_SIZE
        for sector in sectors:
            frag = sector // self._spf
            region = self._classify(frag)
            kind = region[0]
            if kind in ("boot", "beyond", "journal"):
                continue
            if kind == "sb":
                sb_touched = True
            elif kind == "cg":
                if region[2] == 0:  # header magic lives in the first frag
                    cg_headers.add(region[1])
            elif kind == "itab":
                base_ino = self._first_ino_of_sector(region[1], sector)
                raw = self._eff.read(sector, 1)
                for slot in range(per_sector_inodes):
                    ino = base_ino + slot
                    raw128 = raw[slot * INODE_SIZE:(slot + 1) * INODE_SIZE]
                    tracked = self._tracked.get(ino)
                    if tracked is None or tracked.raw != raw128:
                        if tracked is not None or raw128.count(0) != len(raw128):
                            inode_changes.append((ino, raw128))
            else:  # data area
                block = self._dir_frag_block.get(frag)
                if block is not None:
                    dir_blocks.add(block)
                owner = self._indirect_owner.get(frag)
                if owner is not None:
                    indirect_owners.add(owner)

        # 1. retire every changed inode's derived state
        freed: list[int] = []
        adopted: list[tuple[int, Dinode, bytes]] = []
        seen = set()
        for ino, raw128 in sorted(set(inode_changes)):
            if ino < ROOT_INO or ino in seen:
                continue
            seen.add(ino)
            was_tracked = ino in self._tracked
            if was_tracked:
                self._forget(ino)
            din = Dinode.unpack(raw128)
            if din.mode != 0:
                adopted.append((ino, din, raw128))
            elif was_tracked:
                freed.append(ino)
        # an untouched inode whose indirect block changed re-derives too
        for owner in sorted(indirect_owners):
            if owner in self._tracked and owner not in seen:
                seen.add(owner)
                tracked = self._tracked[owner]
                din, raw128 = tracked.din, tracked.raw
                self._forget(owner)
                adopted.append((owner, din, raw128))
        # 2. register allocations first: a ref added by this same commit to
        #    an inode also initialized by it is in order
        for ino, din, raw128 in adopted:
            self._tracked[ino] = _Tracked(din=din, raw=raw128)
            pending = self._dangling.pop(ino, None)
            if pending:
                for key in pending:
                    self._active.discard(("ref3",) + key + (ino,))
        # 3. re-derive claims, pointers, and directory registrations
        for ino, din, _raw in adopted:
            self._adopt_structure(ino, din)
        # 4. re-parse externally-touched directory blocks
        for daddr in sorted(dir_blocks):
            owner = self._block_owner.get(daddr)
            if owner is not None:
                self._reparse_block(owner, daddr)
                self._check_dots(owner)
        # 5. rule 1: a free must come after every referencing entry cleared
        for ino in freed:
            refs = self._refs_to.get(ino)
            if refs:
                dir_ino, name = next(iter(refs.values()))
                self._fire(
                    "free-while-referenced",
                    f"inode {ino} freed while directory {dir_ino} entry "
                    f"{name!r} still references it (rule 1 violated)")
        # 6. metadata headers
        if sb_touched:
            self._check_superblock()
        for cg in sorted(cg_headers):
            self._check_cg_header(cg)

    # -- region arithmetic ------------------------------------------------------
    def _classify(self, frag: int) -> tuple:
        geo = self.geo
        if frag < geo.cg_start:
            return ("sb",) if frag == geo.superblock_daddr else ("boot",)
        if frag >= geo.total_frags:
            return ("beyond",)
        if geo.journal_frags and frag >= geo.journal_start:
            return ("journal",)
        cg = (frag - geo.cg_start) // geo.cg_frags
        offset = (frag - geo.cg_start) % geo.cg_frags
        if offset < geo.frags_per_block:
            return ("cg", cg, offset)
        if offset < geo.frags_per_block * (1 + geo.inode_blocks_per_cg):
            return ("itab", cg)
        return ("data",)

    def _first_ino_of_sector(self, cg: int, sector: int) -> int:
        geo = self.geo
        table = geo.cg_inode_table(cg)
        frag = sector // self._spf
        block_index = (frag - table) // geo.frags_per_block
        block_first_sector = (table
                              + block_index * geo.frags_per_block) * self._spf
        sector_in_block = sector - block_first_sector
        return (cg * geo.ipg + block_index * geo.inodes_per_block
                + sector_in_block * (self._sector_size // INODE_SIZE))

    def _read_frags(self, daddr: int, frags: int) -> bytes:
        return self._eff.read(daddr * self._spf, frags * self._spf)

    # -- journal tracking --------------------------------------------------------
    def _journal_rescan(self) -> tuple[dict, dict]:
        """Scan the shadow image's log region.

        Returns (committed overlay, open-transaction images): frag -> the
        logged bytes recovery would replay, and frag -> the head (valid
        descriptor, no commit record yet) transaction's images -- home
        writes matching the latter are checkpoints running ahead of their
        commit record."""
        geo = self.geo
        spf = self._spf

        def read_frag(daddr: int, nfrags: int) -> bytes:
            return self._image.read(daddr * spf, nfrags * spf)

        result = journal.scan_journal(read_frag, geo)
        open_images: dict[int, bytes] = {}
        if result.open_frags:
            base = geo.journal_start + 1
            log_frags = geo.journal_frags - 1
            frag_size = geo.frag_size
            for pos in dict.fromkeys((result.head_pos, 0)):
                entries = journal.parse_descriptor(read_frag(base + pos, 1),
                                                   result.head_seq)
                if entries is None:
                    continue
                if pos + journal.record_extent(entries) > log_frags:
                    continue
                at = pos + 1
                for entry in entries:
                    if entry.kind != journal.IMAGE:
                        continue
                    data = read_frag(base + at, entry.nfrags)
                    for i in range(entry.nfrags):
                        open_images[entry.daddr + i] = bytes(
                            data[i * frag_size:(i + 1) * frag_size])
                    at += entry.nfrags
                break
            open_images = {frag: data for frag, data in open_images.items()
                           if frag in result.open_frags}
        return dict(result.overlay), open_images

    def _journal_refresh(self) -> list[int]:
        """Rescan after a log-region commit; return the home sectors whose
        effective content moved (commit made images authoritative, retire
        dropped them back to -- now checkpointed -- home copies)."""
        old_overlay, old_open = self._j_overlay, self._j_open
        self._j_overlay, self._j_open = self._journal_rescan()
        for frag in old_open:
            if frag not in self._j_open:
                self._active.discard(("jco", frag))
        spf = self._spf
        changed: list[int] = []
        for frag in set(old_overlay) | set(self._j_overlay):
            before = old_overlay.get(frag)
            after = self._j_overlay.get(frag)
            if before == after:
                continue
            if before is None or after is None:
                home = self._image.read(frag * spf, spf)
                before = before if before is not None else home
                after = after if after is not None else home
            if before != after:
                changed.extend(range(frag * spf, (frag + 1) * spf))
        return changed

    def _check_checkpoint_order(self, home_sectors: list[int]) -> None:
        """The journal's one ordering rule: a logged image must not land at
        its home address while its commit record is still not durable."""
        if not self._j_open:
            return
        spf = self._spf
        for frag in sorted({sector // spf for sector in home_sectors}):
            want = self._j_open.get(frag)
            if want is None:
                continue
            if self._image.read(frag * spf, spf) == want:
                self._fire_once(
                    ("jco", frag), "journal-checkpoint-order",
                    f"fragment {frag} checkpointed home before its "
                    f"transaction's commit record is durable")

    # -- derived-state maintenance ---------------------------------------------
    def _bootstrap(self) -> None:
        """Derive the initial structural state from the attach-time image.

        The pre-workload image is expected consistent, but the derivation
        runs the same checks as live commits -- a dirty starting image
        reports its violations at attach (window lbn -1)."""
        for ino in range(self.geo.total_inodes):
            if ino < ROOT_INO:
                continue
            block = self._read_frags(self.geo.inode_block_daddr(ino),
                                     self.geo.frags_per_block)
            at = self.geo.inode_offset_in_block(ino)
            raw128 = bytes(block[at:at + INODE_SIZE])
            din = Dinode.unpack(raw128)
            if din.mode != 0:
                self._tracked[ino] = _Tracked(din=din, raw=raw128)
        for ino in sorted(self._tracked):
            self._adopt_structure(ino, self._tracked[ino].din)

    def _adopt_structure(self, ino: int, din: Dinode) -> None:
        """(Re-)derive one allocated inode: claims, pointers, dir blocks."""
        tracked = self._tracked[ino]
        ftype = din.safe_ftype
        if ftype is None:
            self._fire_once(("ptr", ino, "mode"), "fs-unsound",
                            f"inode {ino} mode {din.mode:#06x} unparseable")
            return
        for op in inode_claim_ops(self._eff, self.geo, ino, din):
            if op[0] == "error":
                self._fire_once(("ptr", ino, op[1]), "pointer-invalid",
                                op[1])
                continue
            frag = op[1]
            tracked.claims.add(frag)
            owners = self._frag_owners.setdefault(frag, set())
            others = owners - {ino}
            owners.add(ino)
            if others:
                self._fire_once(
                    ("dup", frag), "reuse-before-nullify",
                    f"fragment {frag} claimed by inode {ino} while inode "
                    f"{min(others)} still points to it (rule 2 violated)")
        tracked.indirect = self._indirect_frags(din)
        for frag in tracked.indirect:
            self._indirect_owner[frag] = ino
        if ftype is FileType.DIRECTORY:
            blocks = ((din.size + self.geo.block_size - 1)
                      // self.geo.block_size)
            for lblk in range(min(blocks, self.geo.NDADDR)):
                daddr = din.direct[lblk]
                if not daddr:
                    self._fire_once(
                        ("hole", ino, lblk), "dir-unsound",
                        f"directory {ino} has a hole at block {lblk}")
                    continue
                if valid_data_frag(self.geo, daddr):
                    self._register_block(ino, daddr)
            self._check_dots(ino)

    def _indirect_frags(self, din: Dinode) -> set:
        """Fragments holding this inode's indirect pointer blocks."""
        geo = self.geo
        frags: set = set()

        def add_block(daddr: int) -> None:
            frags.update(range(daddr, daddr + geo.frags_per_block))

        if din.sindirect and valid_data_frag(geo, din.sindirect):
            add_block(din.sindirect)
        if din.dindirect and valid_data_frag(geo, din.dindirect):
            add_block(din.dindirect)
            raw = self._read_frags(din.dindirect, geo.frags_per_block)
            for pointer in struct.unpack(f"<{geo.nindir}I", raw):
                if pointer and valid_data_frag(geo, pointer):
                    add_block(pointer)
        return frags

    def _register_block(self, ino: int, daddr: int) -> None:
        tracked = self._tracked[ino]
        tracked.dir_blocks.append(daddr)
        self._block_owner[daddr] = ino
        self._block_entries.setdefault(daddr, {})
        for frag in range(daddr, daddr + self.geo.frags_per_block):
            self._dir_frag_block[frag] = daddr
        self._reparse_block(ino, daddr)

    def _reparse_block(self, ino: int, daddr: int) -> None:
        raw = self._read_frags(daddr, self.geo.frags_per_block)
        old = self._block_entries.get(daddr, {})
        try:
            records = list(directory.iter_records(raw))
        except directory.CorruptDirectory as exc:
            self._fire_once(
                ("corrupt", daddr), "dir-unsound",
                f"directory {ino} block at daddr {daddr} corrupt: {exc}")
            for offset, (name, target) in old.items():
                self._drop_ref(daddr, offset, target)
            self._block_entries[daddr] = {}
            self._block_dots[daddr] = (False, False)
            return
        self._active.discard(("corrupt", daddr))
        new: dict = {}
        seen_dot = seen_dotdot = False
        for offset, target, _reclen, name, _ftype in records:
            if not target:
                continue
            if name == ".":
                seen_dot = True
                if target != ino:
                    self._fire_once(
                        ("dot", ino), "dir-unsound",
                        f"directory {ino}: '.' points to {target}")
                else:
                    self._active.discard(("dot", ino))
                continue
            if name == "..":
                seen_dotdot = True
            new[offset] = (name, target)
        for offset, (name, target) in old.items():
            if new.get(offset) != (name, target):
                self._drop_ref(daddr, offset, target)
        for offset, (name, target) in new.items():
            if old.get(offset) != (name, target):
                self._add_ref(ino, daddr, offset, target, name)
        self._block_entries[daddr] = new
        self._block_dots[daddr] = (seen_dot, seen_dotdot)

    def _check_dots(self, ino: int) -> None:
        tracked = self._tracked.get(ino)
        if tracked is None:
            return
        if not tracked.din.size:
            return
        seen_dot = any(self._block_dots.get(d, (False, False))[0]
                       for d in tracked.dir_blocks)
        seen_dotdot = any(self._block_dots.get(d, (False, False))[1]
                          for d in tracked.dir_blocks)
        if seen_dot and seen_dotdot:
            self._active.discard(("dots", ino))
        else:
            self._fire_once(("dots", ino), "dir-unsound",
                            f"directory {ino} missing '.' or '..'")

    def _add_ref(self, dir_ino: int, daddr: int, offset: int, target: int,
                 name: str) -> None:
        if not (0 <= target < self.geo.total_inodes):
            self._fire_once(
                ("ref3", daddr, offset, target), "dirent-uninitialized",
                f"directory {dir_ino} entry {name!r} points to out-of-range "
                f"inode {target} (rule 3 violated)")
            return
        if target not in self._tracked:
            self._fire_once(
                ("ref3", daddr, offset, target), "dirent-uninitialized",
                f"directory {dir_ino} entry {name!r} points to unallocated "
                f"inode {target} (rule 3 violated)")
            self._dangling.setdefault(target, set()).add((daddr, offset))
        self._refs_to.setdefault(target, {})[(daddr, offset)] = (dir_ino,
                                                                 name)

    def _drop_ref(self, daddr: int, offset: int, target: int) -> None:
        refs = self._refs_to.get(target)
        if refs is not None:
            refs.pop((daddr, offset), None)
            if not refs:
                del self._refs_to[target]
        self._active.discard(("ref3", daddr, offset, target))
        pending = self._dangling.get(target)
        if pending is not None:
            pending.discard((daddr, offset))
            if not pending:
                del self._dangling[target]

    def _forget(self, ino: int) -> None:
        """Retire one inode's derived state (free or pre-rederive)."""
        tracked = self._tracked.pop(ino)
        for frag in tracked.claims:
            owners = self._frag_owners.get(frag)
            if owners is None:
                continue
            owners.discard(ino)
            if len(owners) <= 1:
                self._active.discard(("dup", frag))
            if not owners:
                del self._frag_owners[frag]
        for frag in tracked.indirect:
            if self._indirect_owner.get(frag) == ino:
                del self._indirect_owner[frag]
        for daddr in tracked.dir_blocks:
            if self._block_owner.get(daddr) != ino:
                continue
            for offset, (name, target) in \
                    self._block_entries.get(daddr, {}).items():
                self._drop_ref(daddr, offset, target)
            self._block_entries.pop(daddr, None)
            self._block_dots.pop(daddr, None)
            del self._block_owner[daddr]
            for frag in range(daddr, daddr + self.geo.frags_per_block):
                if self._dir_frag_block.get(frag) == daddr:
                    del self._dir_frag_block[frag]
        self._active = {key for key in self._active
                        if not (key[0] in ("ptr", "hole", "dot", "dots")
                                and key[1] == ino)}

    # -- header soundness -------------------------------------------------------
    def _check_superblock(self) -> None:
        try:
            Superblock.unpack(self._read_frags(self.geo.superblock_daddr, 1))
        except ValueError as exc:
            self._fire_once(("sb",), "fs-unsound",
                            f"superblock unreadable: {exc}")
        else:
            self._active.discard(("sb",))

    def _check_cg_header(self, cg: int) -> None:
        raw = bytearray(self._read_frags(self.geo.cg_base(cg),
                                         self.geo.frags_per_block))
        if CgView(raw, self.geo).magic != CG_MAGIC:
            self._fire_once(("cg", cg), "fs-unsound",
                            f"cylinder group {cg} bad magic")
        else:
            self._active.discard(("cg", cg))
