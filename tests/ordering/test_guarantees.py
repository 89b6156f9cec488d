"""CrashGuarantees.permits: key dispatch first, severity only as fallback.

The bug this pins: with severity checked first, a ``link-count`` or
``stale-data`` finding that a checker books at corruption severity would
be gated by ``allows_corruption`` instead of its dedicated flag -- No
Order (which allows corruption) would absorb a stale-data leak it never
declared safe, and a scheme with ``allows_link_skew=False`` could have
skew findings slip through.  The full severity x key matrix below leaves
no ambiguous cell.
"""

import itertools

import pytest

from repro.integrity.invariants import (
    INVARIANTS,
    Invariant,
    Severity,
    invariant_by_key,
)
from repro.ordering.guarantees import SAFE_DEFAULT, UNSAFE, CrashGuarantees


def all_guarantees():
    """Every corner of the declaration space (16 combinations)."""
    for bits in itertools.product((False, True), repeat=4):
        yield CrashGuarantees(allows_corruption=bits[0],
                              allows_leaks=bits[1],
                              allows_link_skew=bits[2],
                              allows_stale_data=bits[3])


def expected_verdict(guarantees: CrashGuarantees,
                     invariant: Invariant) -> bool:
    """The specification: dedicated flag first, then severity."""
    if invariant.key == "link-count":
        return guarantees.allows_link_skew
    if invariant.key == "stale-data":
        return guarantees.allows_stale_data
    if invariant.severity is Severity.CORRUPTION:
        return guarantees.allows_corruption
    return guarantees.allows_leaks


@pytest.mark.parametrize("invariant", INVARIANTS, ids=lambda i: i.key)
def test_permits_matrix(invariant):
    for guarantees in all_guarantees():
        assert guarantees.permits(invariant) == \
            expected_verdict(guarantees, invariant), \
            f"{invariant.key} mis-gated under {guarantees}"


@pytest.mark.parametrize("severity", list(Severity))
def test_keyed_invariants_ignore_severity(severity):
    """The ambiguous cells: a keyed finding at *any* severity is gated by
    its own flag, never by what the severity fallback would say."""
    for key, flag in (("link-count", "allows_link_skew"),
                      ("stale-data", "allows_stale_data")):
        reclassified = Invariant(key, severity, "reclassified")
        for guarantees in all_guarantees():
            assert guarantees.permits(reclassified) == \
                getattr(guarantees, flag)


def test_corruption_severity_needs_allows_corruption():
    dangling = invariant_by_key("dangling-entry")
    assert UNSAFE.permits(dangling)
    assert not SAFE_DEFAULT.permits(dangling)


def test_repairable_severity_falls_back_to_leaks():
    leak = invariant_by_key("leak")
    assert SAFE_DEFAULT.permits(leak)
    assert not CrashGuarantees(allows_leaks=False).permits(leak)


def test_catalogue_has_no_undispatchable_cell():
    """Audit: every catalogued invariant reaches exactly one gate."""
    for invariant in INVARIANTS:
        gates = {True: set(), False: set()}
        for guarantees in all_guarantees():
            gates[guarantees.permits(invariant)].add(guarantees)
        # permits() must be a non-constant function of the declaration
        # (every invariant is allowed under some declaration and denied
        # under another -- no cell is unconditionally swallowed)
        assert gates[True] and gates[False], invariant.key
