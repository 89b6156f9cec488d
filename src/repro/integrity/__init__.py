"""Crash states and file system checking.

The paper *argues* that each scheme preserves metadata integrity across
failures; this package lets the test suite *verify* it.  ``medialog``
synthesizes the image a power failure at any instant leaves from one
recording (the prefix of a write mid-transfer included; off-media
survivors are said once, in the scheme's ``on_survivor`` stream; a live
machine's image is only the tests' oracle).  ``fsck`` audits that image
against the paper's three ordering rules and the classic FFS structural
invariants, separating true integrity violations from the benign
inconsistencies fsck repairs (leaked blocks, inflated link counts, stale
bitmaps).
"""

from repro.integrity.findings import CrashFinding, ExplorationReport
from repro.integrity.fsck import FsckReport, fsck, repair
from repro.integrity.invariants import (
    INVARIANTS,
    Invariant,
    Severity,
    Violation,
    classify_report,
    unexpected,
)
from repro.integrity.monitor import OrderingViolation, monitor_violations
from repro.integrity.secrets import plant_secrets, find_secret_leaks

__all__ = ["CrashFinding", "ExplorationReport", "FsckReport", "INVARIANTS",
           "Invariant", "OrderingViolation", "Severity", "Violation",
           "classify_report", "fsck", "find_secret_leaks",
           "monitor_violations", "plant_secrets", "repair", "unexpected"]
