"""Ordering-rule monitor: flag violations at the commit that caused them.

The paper's schemes promise that metadata writes reach the platters in an
order that keeps the image recoverable at every instant.  Crash
exploration checks this at a sweep of sampled crash points.  The monitor
(in the spirit of SquirrelFS, arxiv 2406.09649) checks it at *every*
instant the media changes, the base image and every durable write's end
(:func:`commits`).  :func:`judge_commits` is a fold over the one walk of
the media log (:func:`repro.integrity.medialog.audited_images`), which
audits each image with one :class:`repro.integrity.fsck.Auditor`;
:func:`monitor_violations` walks the commits alone, and a ``--monitor``
sweep merges them with its crash points, so a shared instant is audited
once.  Each error the previous audit did not report is one typed
:class:`OrderingViolation`, carrying fsck's message verbatim and naming
the rule, the offending write window (lbn + sectors) and the simulated
instant.  There is one structural checker and the monitor is a caller of
it; there is one record of the media, the log, and one walk of it.  The
price is one audit per durable commit that re-decodes only the records
the commit changed, plus the cross-inode replay over the whole image
(docs/consistency-monitor.md, "Cost").

The rule catalogue (:data:`RULES`) is the paper's three ordering rules
plus the structural soundness they protect; the rule of a new error is the
invariant key the fsck check that found it named
(:mod:`repro.integrity.invariants`), renamed through :data:`_RULE_OF` --
no message is read.  A dangling entry is rule 3 (``dirent-uninitialized``)
unless its target, the finding's ``subject``, was allocated at the
previous audit: then the inode was freed under the entry, rule 1
(``free-while-referenced``).

Journaling: fsck audits a journaling image in its *recovered* state (the
raw image with the committed log written home), so lazy checkpoints --
home writes arbitrarily later than their commits -- never trip a
structural rule.
``journal-checkpoint-order`` is the one rule that view cannot show: the
pass compares home writes to the head transaction's not-yet-committed
images, the ``open_images`` of the log scan the previous audit recovered
its image through (``FsckReport.journal``) -- only the audit scans the log.

Per-scheme rulesets derive from :class:`~repro.ordering.guarantees.
CrashGuarantees`: every rule above guards corruption-class state, so a hit
is *expected* only for schemes declaring ``allows_corruption`` (No Order).
Repairable wear -- fsck's warnings: link skew, leaks, bitmap drift -- is
deliberately not monitored: the safe schemes produce it by design and
classic fsck repairs it mechanically.  Soft updates' rollback windows need
no special casing: the scheme writes *rolled-back* buffer versions so that
every media state is consistent, and media states are what is audited.
NVRAM's battery-backed mirror is part of the synthesized image, as it
stands at each commit end.

A violation fires on the *transition* into a bad state: a condition that
persists across commits with an unchanged fsck message is reported once.
"No violation" is "no fsck error at any durable commit end" by
definition.  Mid-window sector prefixes are the sweep's sampled
mid-transfer points.  The pass runs after the recording and reads only
the recording, so it cannot perturb the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.integrity.fsck import Auditor
from repro.integrity.medialog import audited_images
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

#: invariant key of a fsck error (repro.integrity.invariants) -> rule key
#: (a dangling entry may be rule 1 instead: see the module docstring)
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


def commits(recorded):
    """``(time, write)``: the base image (``-inf``, None), then every
    durable write's end in media order (a transient's pass is no state)."""
    yield float("-inf"), None
    for write in recorded.media_log.entries:
        if write.durable:
            yield write.end, write


def judge_commits(states, geometry,
                  guarantees: CrashGuarantees) -> list[OrderingViolation]:
    """The per-commit diff over the walk's ``(write, image, report)`` at
    each of :func:`commits`; what is wrong with the base image is reported
    in the placeholder window ``lbn -1``."""
    violations: list[OrderingViolation] = []
    errors = allocated = frozenset()
    # the head transaction's not-yet-committed images in the previous
    # audit's log scan (checkpoint rule), and the home frags currently in
    # breach of it
    journal_open: dict[int, bytes] = {}
    early: set[int] = set()
    for write, image, report in states:
        window = ((0.0, -1, 0) if write is None
                  else (write.end, write.lbn, write.nsectors))
        fired = []
        if write is not None and journal_open:
            spf = geometry.frag_size // image.geometry.sector_size
            for frag in range(write.lbn // spf,
                              (write.lbn + write.durable - 1) // spf + 1):
                want = journal_open.get(frag)
                if (want is not None and frag not in early
                        and image.read(frag * spf, spf) == want):
                    early.add(frag)
                    fired.append((
                        "journal-checkpoint-order",
                        f"fragment {frag} checkpointed home before its "
                        f"transaction's commit record is durable"))
        found = dict.fromkeys(finding for finding in report.findings
                              if finding.is_corruption)
        for finding in found:
            if finding in errors:
                continue
            rule = _RULE_OF[finding.key]
            if (finding.key == "dangling-entry"
                    and finding.subject in allocated):
                rule = "free-while-referenced"
            fired.append((rule, finding.message))
        errors = frozenset(found)
        allocated = frozenset(report.inodes)
        # a commit or retire closes the open set
        journal_open = (report.journal.open_images
                        if report.journal is not None else {})
        early &= journal_open.keys()
        violations += [OrderingViolation(
            rule, message, *window, expected=guarantees.allows_corruption)
            for rule, message in fired]
    return violations


def monitor_violations(recorded, geometry,
                       guarantees: CrashGuarantees = SAFE_DEFAULT
                       ) -> list[OrderingViolation]:
    """fsck at every durable commit of *recorded* (a
    :class:`~repro.harness.recording.RecordedRun`), diffed against the
    commit before: :func:`judge_commits` over the walk of :func:`commits`.
    *geometry* is the file system's :class:`~repro.fs.layout.FSGeometry`,
    *guarantees* the scheme's declaration."""
    return judge_commits(
        audited_images(recorded.base_image, recorded.media_log,
                       Auditor(geometry), commits(recorded)),
        geometry, guarantees)
