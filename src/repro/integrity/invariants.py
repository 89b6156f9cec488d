"""The declarative invariant set crash exploration checks.

``fsck`` reports free-form messages; this module maps every message onto a
named invariant with a severity class, so findings can be aggregated,
compared across schemes, and held against each scheme's
:class:`~repro.ordering.guarantees.CrashGuarantees` declaration.

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

from repro.integrity.fsck import FsckReport


class Severity(enum.Enum):
    CORRUPTION = "corruption"
    REPAIRABLE = "repairable"
    SECURITY = "security"


@dataclass(frozen=True)
class Invariant:
    """One named integrity property, matched against fsck messages."""

    key: str
    severity: Severity
    description: str
    #: substrings identifying this invariant's violations in fsck output
    patterns: tuple[str, ...]

    def matches(self, message: str) -> bool:
        return any(pattern in message for pattern in self.patterns)


#: checked in order; first match wins
INVARIANTS: tuple[Invariant, ...] = (
    Invariant(
        "dangling-entry", Severity.CORRUPTION,
        "no directory entry may point to an unallocated or out-of-range "
        "inode (rule 3: never point to an uninitialized structure)",
        ("points to unallocated inode", "points to out-of-range inode")),
    Invariant(
        "double-alloc", Severity.CORRUPTION,
        "no block may be claimed by two files (rule 2: never reuse a "
        "resource before nullifying all previous pointers)",
        ("claimed by both inode",)),
    Invariant(
        "bad-pointer", Severity.CORRUPTION,
        "no inode may point outside the volume's data area",
        ("points outside the data area", "indirect pointer outside")),
    Invariant(
        "dir-corrupt", Severity.CORRUPTION,
        "directory contents must stay structurally sound ('.'/'..' intact, "
        "no holes, parseable entries)",
        ("corrupt:", "missing '.'", "'.' points to", "has a hole")),
    Invariant(
        "fs-unreadable", Severity.CORRUPTION,
        "the superblock, cylinder-group headers and root inode must "
        "survive every crash",
        ("superblock unreadable", "root inode missing", "bad magic")),
    Invariant(
        "link-count", Severity.REPAIRABLE,
        "an inode's link count must equal its directory references "
        "(fsck recomputes; transient skew is the price of entry-first "
        "remove orderings)",
        ("link count",)),
    Invariant(
        "leak", Severity.REPAIRABLE,
        "no allocated-but-unreachable inodes, fragments or bitmap bits "
        "(fsck reclaims; lazy deallocation leaks by design)",
        ("unreferenced (leak)", "allocated but unreferenced",
         "bitmap used but dinode free")),
    Invariant(
        "bitmap-stale", Severity.REPAIRABLE,
        "the bitmaps must agree with what the inodes reference "
        "(fsck re-marks referenced-but-free bits)",
        ("but marked free", "bitmap says free")),
    Invariant(
        "stale-data", Severity.SECURITY,
        "no file may expose bytes of a previously deleted file "
        "(closed by allocation initialization)",
        ("stale data",)),
    Invariant(
        "unrepairable", Severity.CORRUPTION,
        "an error-free crash image must come out of fsck repair with no "
        "errors and no warnings",
        ("repair left",)),
)

#: catch-alls so an unrecognized fsck message is never silently dropped
_UNKNOWN_ERROR = Invariant(
    "integrity-error", Severity.CORRUPTION,
    "unclassified fsck error", ())
_UNKNOWN_WARNING = Invariant(
    "inconsistency", Severity.REPAIRABLE,
    "unclassified fsck warning", ())

_BY_KEY = {inv.key: inv for inv in
           INVARIANTS + (_UNKNOWN_ERROR, _UNKNOWN_WARNING)}


def invariant_by_key(key: str) -> Invariant:
    return _BY_KEY[key]


@dataclass(frozen=True)
class Violation:
    """One observed invariant violation (picklable across pool workers)."""

    key: str
    severity: Severity
    message: str

    @property
    def is_corruption(self) -> bool:
        return self.severity is Severity.CORRUPTION


#: INVARIANTS flattened in order to (pattern, key, severity), so the first
#: hit of one flat scan is the first invariant that matches
_PROBES = tuple((pattern, inv.key, inv.severity)
                for inv in INVARIANTS for pattern in inv.patterns)


def _classify_message(message: str, fallback: Invariant) -> Violation:
    for pattern, key, severity in _PROBES:
        if pattern in message:
            return Violation(key, severity, message)
    return Violation(fallback.key, fallback.severity, message)


def classify_report(report: FsckReport,
                    secret_leaks: list | None = None) -> list[Violation]:
    """Map a fsck report (plus optional stale-data findings) to violations."""
    violations = [_classify_message(error, _UNKNOWN_ERROR)
                  for error in report.errors]
    violations += [_classify_message(warning, _UNKNOWN_WARNING)
                   for warning in report.warnings]
    stale = invariant_by_key("stale-data")
    for leak in secret_leaks or []:
        violations.append(Violation(stale.key, stale.severity,
                                    f"stale data exposed: {leak}"))
    return violations


def unexpected(violations: list[Violation], guarantees) -> list[Violation]:
    """The subset a scheme's declaration does *not* permit."""
    return [violation for violation in violations
            if not guarantees.permits(invariant_by_key(violation.key))]
