"""Reference model of the message -> invariant classifier that typed
findings replaced.

Until every fsck check named the invariant it guards, key and severity
were recovered from the sentence: ordered substring probes, first match
wins, and a catch-all key per list for a message nothing matched.  The
table, the probe and ``classify_report`` are the parent commit's shipped
code, unchanged (the patterns sat on ``Invariant.patterns``).  They are
kept only so the differential tests can require every typed finding to
carry the verdict the parent would have read out of its message.
"""

from repro.integrity.invariants import Severity, Violation

#: (key, severity, substrings), checked in order; first match wins
PATTERNS = (
    ("dangling-entry", Severity.CORRUPTION,
     ("points to unallocated inode", "points to out-of-range inode")),
    ("double-alloc", Severity.CORRUPTION, ("claimed by both inode",)),
    ("bad-pointer", Severity.CORRUPTION,
     ("points outside the data area", "indirect pointer outside")),
    ("dir-corrupt", Severity.CORRUPTION,
     ("corrupt:", "missing '.'", "'.' points to", "has a hole")),
    ("fs-unreadable", Severity.CORRUPTION,
     ("superblock unreadable", "root inode missing", "bad magic")),
    ("link-count", Severity.REPAIRABLE, ("link count",)),
    ("leak", Severity.REPAIRABLE,
     ("unreferenced (leak)", "allocated but unreferenced",
      "bitmap used but dinode free")),
    ("bitmap-stale", Severity.REPAIRABLE,
     ("but marked free", "bitmap says free")),
    ("stale-data", Severity.SECURITY, ("stale data",)),
    ("unrepairable", Severity.CORRUPTION, ("repair left",)),
)
#: the catch-alls, by the list (kind) the unmatched message came from
UNKNOWN = {"error": ("integrity-error", Severity.CORRUPTION),
           "warning": ("inconsistency", Severity.REPAIRABLE)}

_PROBES = tuple((pattern, key, severity)
                for key, severity, patterns in PATTERNS
                for pattern in patterns)


def classify_message(message: str, kind: str) -> Violation:
    for pattern, key, severity in _PROBES:
        if pattern in message:
            return Violation(key, severity, message)
    return Violation(*UNKNOWN[kind], message)


def classify_report(report, secret_leaks=None) -> list[Violation]:
    violations = [classify_message(error, "error")
                  for error in report.errors]
    violations += [classify_message(warning, "warning")
                   for warning in report.warnings]
    for leak in secret_leaks or []:
        violations.append(Violation("stale-data", Severity.SECURITY,
                                    f"stale data exposed: {leak}"))
    return violations


# ----------------------------------------------------------------------
# adapters for the differential tests (not the parent's code)
# ----------------------------------------------------------------------
def typed(pairs) -> list[Violation]:
    """``reference_fsck``'s ``(kind, msg)`` pairs as the records the
    shipped scan returns, for tests that patch the reference scan in."""
    return [classify_message(msg, kind) for kind, msg in pairs]


def verdicts(violations) -> list[tuple]:
    return [(v.key, v.severity, v.message) for v in violations]


def assert_agrees(violations) -> None:
    """Every typed finding carries the reference's verdict on its message.

    The one exception is the ``unrepairable`` residue: "repair left" is
    probed last and the residue it quotes always matches an earlier
    pattern, so the reference books it under the quoted finding's key.
    """
    for found in violations:
        kind = "error" if found.is_corruption else "warning"
        want = classify_message(found.message, kind)
        if found.key == "unrepairable":
            quoted = found.message.partition(": ")[2]
            assert found.message.startswith("repair left ") and quoted
            assert want.key == classify_message(quoted, "error").key
            assert found.severity is Severity.CORRUPTION
            continue
        assert (found.key, found.severity) == (want.key, want.severity), \
            (found, want)
