"""Online ordering-rule monitor: flag violations *as commits land*.

The paper's schemes promise that metadata writes reach the platters in an
order that keeps the image recoverable at every instant.  Crash
exploration checks this after the fact -- fsck over a sweep of synthesized
crash images.  The monitor (in the spirit of SquirrelFS, arxiv 2406.09649)
checks it *online*: as an entry of the drive's ``write_observers`` it
mirrors every write's durable sector prefix into a private shadow image,
and audits that image with a :class:`repro.integrity.fsck.Auditor` after
every durable commit.  Each error the previous commit's audit did not
report is one typed :class:`OrderingViolation`, carrying fsck's message
verbatim and naming the rule, the offending write window (lbn + sectors)
and the simulated instant.  There is one structural checker in the
repository and the monitor is a caller of it: between commits it
remembers the last audit's error set and allocated-inode set, and its
auditor the per-record results that audit decoded.  The price is one fsck
per durable commit that re-decodes only the records the commit changed,
plus the cross-inode replay over the whole image -- about a millisecond
on the exploration testbed, which is what the monitor is meant for
(docs/consistency-monitor.md, "Cost").

The rule catalogue is the paper's three ordering rules plus the structural
soundness they protect; the rule of a new error is the invariant key the
fsck check that found it named (:mod:`repro.integrity.invariants`),
renamed through :data:`_RULE_OF` -- no message is read:

* ``dirent-uninitialized`` -- rule 3: never point a directory entry at an
  uninitialized (unallocated) inode,
* ``free-while-referenced`` -- rule 1: never reset the old pointer (free
  the inode) while directory entries still reference it -- a dangling
  entry whose target (the finding's ``subject``) was allocated at the
  previous audit,
* ``reuse-before-nullify`` -- rule 2: never reuse a fragment before the
  previous owner's pointer to it is nullified,
* ``pointer-invalid`` -- an inode pointer left the data area,
* ``dir-unsound`` -- a referenced directory block must always parse, hold
  its '.'/'..' pair, and have no holes,
* ``fs-unsound`` -- the superblock, cylinder-group headers, root inode and
  inode modes must stay readable,
* ``journal-checkpoint-order`` -- write-ahead journaling's one ordering
  obligation: a journaled block image must not reach its home location
  before the transaction's commit record is durable.

Journaling: fsck audits a journaling image in its *recovered* state (raw
image plus committed log overlay), so lazy checkpoints -- home writes
arbitrarily later than their commits -- never trip a structural rule.
``journal-checkpoint-order`` is the one rule that view cannot show: the
monitor keeps the head transaction's not-yet-committed images (re-read
when a commit touches the log region) and compares home writes to them.

Per-scheme rulesets derive from :class:`~repro.ordering.guarantees.
CrashGuarantees`: every rule above guards corruption-class state, so a hit
is *expected* only for schemes declaring ``allows_corruption`` (No Order).
Repairable wear -- fsck's warnings: link skew, leaks, bitmap drift -- is
deliberately not monitored: the safe schemes produce it by design and
classic fsck repairs it mechanically.  Soft updates' rollback windows need
no special casing: the scheme writes *rolled-back* buffer versions so that
every media state is consistent, and media states are what is audited.

A violation fires on the *transition* into a bad state: a condition that
persists across commits with an unchanged fsck message is reported once.
"No violation at any commit" is "no fsck error at any commit boundary" by
construction; ``tests/integrity/test_monitor_differential.py`` proves the
other half -- the shadow built from the live commit stream and the image
synthesized from the media log are the same bytes, message for message.
Mid-window sector prefixes are the sweep's sampled mid-transfer points.

The monitor is an *observer*: it reads only its own shadow state and the
write record it is handed, schedules nothing, and never touches machine
state -- attaching it leaves the simulation timeline bit-identical
(``tests/integrity/test_monitor.py`` holds the proof).  NVRAM's crash
state lives partly in a battery-backed memory mirror, not on the media, so
a media-stream monitor cannot judge it (:func:`monitor_supported`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.disk.drive import InFlightWrite
from repro.fs import journal
from repro.integrity.fsck import Auditor
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

#: invariant key of a fsck error (repro.integrity.invariants) -> rule key.
#: A dangling entry is rule 1 instead when its target (the finding's
#: subject) was allocated at the previous audit: the inode was freed
#: under the entry, not never written
_RULE_OF = {
    "dangling-entry": "dirent-uninitialized",
    "double-alloc": "reuse-before-nullify",
    "bad-pointer": "pointer-invalid",
    "dir-corrupt": "dir-unsound",
    "fs-unreadable": "fs-unsound",
    "integrity-error": "fs-unsound",
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


def monitor_supported(machine) -> bool:
    """True when the scheme's crash state lives entirely on the media.

    NVRAM keeps battery-backed survivors in memory
    (``scheme.apply_to_image``), so its media stream alone is not the
    crash state and the monitor would mis-fire.
    """
    return getattr(machine.scheme, "apply_to_image", None) is None


class OrderingMonitor:
    """fsck at every durable commit, diffed against the commit before.

    *geometry* is the file system's :class:`~repro.fs.layout.FSGeometry`.
    """

    def __init__(self, geometry,
                 guarantees: CrashGuarantees = SAFE_DEFAULT) -> None:
        self.geo = geometry
        self.guarantees = guarantees
        self.violations: list[OrderingViolation] = []
        self.windows_seen = 0
        self.commits_applied = 0
        #: the shadow image and its auditor (set at attach), and what its
        #: last audit found
        self._image = None
        self._auditor = None
        self._spf = 0
        self._errors: frozenset = frozenset()
        self._allocated: frozenset = frozenset()
        #: the head transaction's not-yet-committed images (checkpoint
        #: rule), and the home frags currently in breach of it
        self._j_open: dict[int, bytes] = {}
        self._j_early: set = set()
        #: (when, lbn, nsectors) of the commit being judged
        self._window = (0.0, -1, 0)
        self._attached = None

    @classmethod
    def for_machine(cls, machine) -> Optional["OrderingMonitor"]:
        """The monitor for *machine*'s file system and its scheme's
        declaration, or ``None`` when the media stream alone cannot judge
        the scheme (:func:`monitor_supported`)."""
        if not monitor_supported(machine):
            return None
        return cls(machine.config.fs_geometry,
                   machine.scheme.crash_guarantees)

    # -- lifecycle ----------------------------------------------------------
    def attach(self, disk) -> None:
        """Snapshot the current media state and start watching commits.

        Every attach starts from a fresh snapshot and an empty baseline,
        so whatever is already wrong with the image is reported now, with
        the placeholder window ``lbn -1``, and a fresh auditor."""
        if self._attached is not None:
            raise RuntimeError("monitor already attached")
        self._image = disk.storage.snapshot()
        self._auditor = Auditor(self.geo)
        self._spf = self.geo.frag_size // disk.geometry.sector_size
        self._errors = self._allocated = frozenset()
        self._j_early = set()
        self._j_open = self._journal_open()
        self._window = (0.0, -1, 0)
        self._audit()
        disk.write_observers.append(self._on_commit)
        self._attached = disk

    def detach(self, disk) -> None:
        """Stop watching; a no-op unless attached to *disk*."""
        if self._attached is not disk:
            return
        disk.write_observers.remove(self._on_commit)
        self._attached = None

    # -- reporting ------------------------------------------------------------
    @property
    def clean(self) -> bool:
        return not self.violations

    @property
    def unexpected(self) -> list[OrderingViolation]:
        return [v for v in self.violations if not v.expected]

    # -- the observer -----------------------------------------------------------
    def _on_commit(self, write: InFlightWrite) -> None:
        self.windows_seen += 1
        if not write.durable:
            return  # a transient fault's pass left nothing on the platters
        self.commits_applied += 1
        self._window = (write.end, write.lbn, write.nsectors)
        self._image.write_partial(write.lbn, write.data, write.durable)
        if self.geo.journal_frags:
            self._check_checkpoint_order(write.lbn, write.durable)
        self._audit()

    def _fire(self, rule: str, message: str) -> None:
        self.violations.append(OrderingViolation(
            rule, message, *self._window,
            expected=self.guarantees.allows_corruption))

    def _audit(self) -> None:
        """fsck the shadow image; fire each error the last audit lacked."""
        report = self._auditor.audit(self._image)
        errors = dict.fromkeys(found for found in report.findings
                               if found.is_corruption)
        for found in errors:
            if found in self._errors:
                continue
            rule = _RULE_OF[found.key]
            if (found.key == "dangling-entry"
                    and found.subject in self._allocated):
                rule = "free-while-referenced"
            self._fire(rule, found.message)
        self._errors = frozenset(errors)
        self._allocated = frozenset(report.inodes)

    # -- the journal's own ordering rule -----------------------------------------
    def _journal_open(self) -> dict[int, bytes]:
        """Home frag -> logged bytes for the head transaction (valid
        descriptor, no commit record yet) of the shadow image's log, if it
        has one: a home write matching one is a checkpoint running ahead
        of its commit record."""
        geo = self.geo
        spf = self._spf

        def read_frag(daddr: int, nfrags: int) -> bytes:
            return self._image.read(daddr * spf, nfrags * spf)

        result = journal.scan_journal(read_frag, geo)
        open_images: dict[int, bytes] = {}
        if not result.open_frags:
            return open_images
        base = geo.journal_start + 1
        frag_size = geo.frag_size
        for pos in dict.fromkeys((result.head_pos, 0)):
            entries = journal.parse_descriptor(read_frag(base + pos, 1),
                                               result.head_seq)
            if (entries is None or pos + journal.record_extent(entries)
                    > geo.journal_frags - 1):
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
        return open_images

    def _check_checkpoint_order(self, lbn: int, durable: int) -> None:
        """A logged image must not land at its home address while its
        transaction's commit record is still not durable."""
        spf = self._spf
        frags = range(lbn // spf, (lbn + durable - 1) // spf + 1)
        for frag in frags:
            want = self._j_open.get(frag)
            if (want is not None and frag not in self._j_early
                    and self._image.read(frag * spf, spf) == want):
                self._j_early.add(frag)
                self._fire("journal-checkpoint-order",
                           f"fragment {frag} checkpointed home before its "
                           f"transaction's commit record is durable")
        if frags[-1] >= self.geo.journal_start:
            # the log changed: a commit or retire closes the open set
            self._j_open = self._journal_open()
            self._j_early &= self._j_open.keys()
