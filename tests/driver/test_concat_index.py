"""Bisect-based concatenation must match the dict-scan reference exactly.

``DeviceDriver._concatenate`` extends a chosen request forward and backward
through the ``(lbn, id)`` / ``(end_lbn, id)`` sorted key mirrors instead of
building per-dispatch dicts over every eligible request.  The old dict scan
is kept here as the executable specification; randomized eligible sets --
dense enough to force LBN collisions, end-LBN ties, and forward/backward
interaction -- must produce the identical batch, request by request.
"""

import random

import pytest

from repro.disk import Disk
from repro.driver import DeviceDriver, FlagPolicy, FlagSemantics
from repro.sim import Engine


def reference_concatenate(driver, chosen):
    """The pre-index algorithm, verbatim: dict scans over all eligible."""
    same_kind = {}
    kind = chosen.kind
    for request in driver._eligible.values():
        if request.kind is kind and request is not chosen:
            held = same_kind.get(request.lbn)
            if held is None or request.id < held.id:
                same_kind[request.lbn] = request
    batch = [chosen]
    total = chosen.nsectors
    cursor = chosen.end_lbn
    while total < driver.max_batch_sectors and cursor in same_kind:
        nxt = same_kind.pop(cursor)
        batch.append(nxt)
        total += nxt.nsectors
        cursor = nxt.end_lbn
    by_end = {}
    for request in same_kind.values():
        held = by_end.get(request.end_lbn)
        if held is None or request.id < held.id:
            by_end[request.end_lbn] = request
    cursor = batch[0].lbn
    while total < driver.max_batch_sectors and cursor in by_end:
        prev = by_end.pop(cursor)
        batch.insert(0, prev)
        total += prev.nsectors
        cursor = prev.lbn
    return batch


def populate(seed, nrequests=40, span=60):
    """A driver whose eligible set is *nrequests* random requests packed
    into *span* LBNs -- dense enough that contiguous runs, duplicate start
    LBNs, and end-LBN ties all occur."""
    rng = random.Random(seed)
    engine = Engine()
    driver = DeviceDriver(engine, Disk(engine),
                          FlagPolicy(FlagSemantics.IGNORE))
    for _ in range(nrequests):
        lbn = rng.randrange(span)
        nsectors = rng.choice([1, 2, 2, 4, 8])
        if rng.random() < 0.5:
            request = driver.read(lbn, nsectors)
        else:
            request = driver.write(lbn, b"\x05" * (512 * nsectors))
        # park everything in the eligible index without running the
        # dispatch loop (the engine never advances)
        if request.id not in driver._eligible \
                and driver._overlap_blocker(request) is None:
            driver._promote(request)
    return driver


class TestConcatenateConformance:
    @pytest.mark.parametrize("seed", range(200))
    def test_matches_dict_scan_reference(self, seed):
        driver = populate(seed)
        rng = random.Random(seed ^ 0xC0FFEE)
        keys = list(driver._eligible)
        for _ in range(min(10, len(keys))):
            chosen = driver._eligible[rng.choice(keys)]
            expected = reference_concatenate(driver, chosen)
            got = driver._concatenate(chosen)
            assert [r.id for r in got] == [r.id for r in expected]

    @pytest.mark.parametrize("seed", range(50))
    def test_matches_under_tiny_batch_cap(self, seed):
        """A small sector cap stops extension mid-run in both directions."""
        driver = populate(seed, nrequests=30, span=30)
        driver.max_batch_sectors = 6
        rng = random.Random(seed ^ 0xBEEF)
        keys = list(driver._eligible)
        for _ in range(min(8, len(keys))):
            chosen = driver._eligible[rng.choice(keys)]
            expected = reference_concatenate(driver, chosen)
            got = driver._concatenate(chosen)
            assert [r.id for r in got] == [r.id for r in expected]
