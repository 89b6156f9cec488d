"""The declarative invariant set crash exploration checks.

Every check in :mod:`repro.integrity.fsck` (and the stale-data walk, and
repair verification) names the invariant it guards at the line that found
the breach, through :func:`finding`; this module is the catalogue those
names come from, with a severity class each, so findings can be
aggregated, compared across schemes, and held against each scheme's
:class:`~repro.ordering.guarantees.CrashGuarantees` declaration.  Nothing
here reads a message: the sentence is for people, the key is the verdict.

Severities:

* ``CORRUPTION`` -- structural integrity is lost and fsck cannot decide the
  repair: a lost/uninitialized inode behind a live directory entry (rule 3),
  a doubly-allocated block (rule 2), pointers off the volume, corrupt
  directory contents, an unreadable file system.
* ``REPAIRABLE`` -- classic fsck fixes it mechanically: link-count skew,
  leaked blocks/inodes, stale bitmap bits.
* ``SECURITY`` -- no structure is damaged, but a file exposes a previous
  owner's bytes (the allocation-initialization hole, paper section 1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Severity(enum.Enum):
    CORRUPTION = "corruption"
    REPAIRABLE = "repairable"
    SECURITY = "security"


@dataclass(frozen=True)
class Invariant:
    """One named integrity property."""

    key: str
    severity: Severity
    description: str


INVARIANTS: tuple[Invariant, ...] = (
    Invariant(
        "dangling-entry", Severity.CORRUPTION,
        "no directory entry may point to an unallocated or out-of-range "
        "inode (rule 3: never point to an uninitialized structure)"),
    Invariant(
        "double-alloc", Severity.CORRUPTION,
        "no block may be claimed by two files (rule 2: never reuse a "
        "resource before nullifying all previous pointers)"),
    Invariant(
        "bad-pointer", Severity.CORRUPTION,
        "no inode may point outside the volume's data area"),
    Invariant(
        "dir-corrupt", Severity.CORRUPTION,
        "directory contents must stay structurally sound ('.'/'..' intact, "
        "no holes, parseable entries)"),
    Invariant(
        "fs-unreadable", Severity.CORRUPTION,
        "the superblock, cylinder-group headers and root inode must "
        "survive every crash"),
    Invariant(
        "integrity-error", Severity.CORRUPTION,
        "an allocated inode's mode must name a file type (neither its "
        "pointers nor its blocks mean anything otherwise)"),
    Invariant(
        "link-count", Severity.REPAIRABLE,
        "an inode's link count must equal its directory references "
        "(fsck recomputes; transient skew is the price of entry-first "
        "remove orderings)"),
    Invariant(
        "leak", Severity.REPAIRABLE,
        "no allocated-but-unreachable inodes, fragments or bitmap bits "
        "(fsck reclaims; lazy deallocation leaks by design)"),
    Invariant(
        "bitmap-stale", Severity.REPAIRABLE,
        "the bitmaps must agree with what the inodes reference "
        "(fsck re-marks referenced-but-free bits)"),
    Invariant(
        "stale-data", Severity.SECURITY,
        "no file may expose bytes of a previously deleted file "
        "(closed by allocation initialization)"),
    Invariant(
        "unrepairable", Severity.CORRUPTION,
        "an error-free crash image must come out of fsck repair with no "
        "errors and no warnings"),
)

_BY_KEY = {inv.key: inv for inv in INVARIANTS}


def invariant_by_key(key: str) -> Invariant:
    return _BY_KEY[key]


@dataclass(frozen=True)
class Violation:
    """One observed invariant violation."""

    key: str
    severity: Severity
    message: str
    #: the inode the finding is about, where a consumer needs it (a
    #: dangling entry's target: the monitor's rule 1 / rule 3 split)
    subject: int | None = None

    @property
    def is_corruption(self) -> bool:
        return self.severity is Severity.CORRUPTION


def finding(key: str, message: str, subject: int | None = None) -> Violation:
    """What a check reports: the invariant it guards, by catalogue *key*
    (an uncatalogued key is a ``KeyError`` at the check, not a finding
    booked as unclassified), in the words of *message*."""
    return Violation(key, _BY_KEY[key].severity, message, subject)


def classify_report(report, secret_leaks: list | None = None
                    ) -> list[Violation]:
    """The findings of a :class:`~repro.integrity.fsck.FsckReport`, errors
    first, then whatever the stale-data walk found."""
    found = report.findings
    return ([v for v in found if v.severity is Severity.CORRUPTION]
            + [v for v in found if v.severity is not Severity.CORRUPTION]
            + (secret_leaks or []))


def unexpected(violations: list[Violation], guarantees) -> list[Violation]:
    """The subset a scheme's declaration does *not* permit."""
    denied = {key for key in {violation.key for violation in violations}
              if not guarantees.permits(_BY_KEY[key])}
    return [violation for violation in violations if violation.key in denied]
