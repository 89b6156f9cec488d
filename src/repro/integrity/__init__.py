"""Crash injection and file system checking.

The paper *argues* that each scheme preserves metadata integrity across
failures; this package lets the test suite *verify* it.  ``crash`` freezes a
running machine at an arbitrary simulated instant (applying the sector
prefix of any write that was mid-transfer) and hands back the surviving disk
image; ``fsck`` audits that image against the paper's three ordering rules
and the classic FFS structural invariants, separating true integrity
violations from the benign inconsistencies fsck repairs (leaked blocks,
inflated link counts, stale bitmaps).
"""

from repro.integrity.crash import crash_image, CrashScheduler
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

__all__ = ["CrashFinding", "CrashScheduler", "ExplorationReport",
           "FsckReport", "INVARIANTS", "Invariant", "OrderingViolation",
           "Severity", "Violation", "classify_report", "crash_image",
           "fsck", "find_secret_leaks", "monitor_violations",
           "plant_secrets", "repair", "unexpected"]
