"""The driver's write extent index answers exactly what a per-sector FIFO did.

``DeviceDriver._writes`` holds one ``(lbn, id, end_lbn)`` entry per
incomplete write; ``_overlap_blocker`` bisects it instead of probing a list
per sector.  These tests hold it to the per-sector FIFO it replaced
(``reference_write_fifo.py``) at every classification of randomized
traffic, pin the two rules that decide which older write is named, and
check that the driver's bookkeeping for one write does not grow with the
number of sectors it covers.
"""

import os
import random
import sys

import pytest

import repro.driver
from repro.disk import Disk
from repro.driver import ChainsPolicy, DeviceDriver, FlagPolicy, FlagSemantics
from repro.sim import Engine

from tests.driver.reference_write_fifo import ReferenceWriteFifo


class CheckedDriver(DeviceDriver):
    """A driver that keeps the reference FIFO beside its own index and
    compares the two answers at every ``_overlap_blocker`` question."""

    def __init__(self, engine, disk, policy):
        self.reference = ReferenceWriteFifo()
        self.answers = []
        self._seen = set()
        super().__init__(engine, disk, policy)

    def _classify(self, request):
        # the first classification is at issue, after the index insert
        if request.is_write and request.id not in self._seen:
            self._seen.add(request.id)
            self.reference.issue(request)
        super()._classify(request)

    def _after_completions(self, batch):
        # the batch has just left the index; nothing has been asked since
        for request in batch:
            if request.is_write:
                self.reference.complete(request)
        super()._after_completions(batch)

    def _overlap_blocker(self, request):
        blocker = super()._overlap_blocker(request)
        expected = self.reference.blocker(request)
        assert blocker == expected, (request, blocker, expected)
        self.answers.append(blocker)
        return blocker


POLICIES = [
    ("ignore", lambda: FlagPolicy(FlagSemantics.IGNORE)),
    ("part-nr", lambda: FlagPolicy(FlagSemantics.PART, read_bypass=True)),
    ("back-nr", lambda: FlagPolicy(FlagSemantics.BACK, read_bypass=True)),
    ("full-nr", lambda: FlagPolicy(FlagSemantics.FULL, read_bypass=True)),
    ("chains", ChainsPolicy),
]


def replay(policy_factory, seed, nops=160):
    """Seeded traffic of 1-128-sector writes and short reads, most of it
    inside one 600-sector window so writes overlap partially and often."""
    rng = random.Random(seed)
    engine = Engine()
    driver = CheckedDriver(engine, Disk(engine), policy_factory())
    issued = []

    def producer():
        for _ in range(nops):
            if rng.random() < 0.3:
                yield engine.timeout(rng.choice([0.0003, 0.002, 0.011]))
            if rng.random() < 0.8:
                lbn = 1000 + rng.randrange(600)
            else:
                lbn = rng.randrange(200_000)
            if rng.random() < 0.3:
                issued.append(driver.read(lbn, rng.randint(1, 32)))
            else:
                issued.append(driver.write(
                    lbn, bytes(512 * rng.randint(1, 128)),
                    flag=rng.random() < 0.3))

    engine.run_until(engine.process(producer()), max_events=5_000_000)
    for request in issued:
        engine.run_until(request.done, max_events=5_000_000)
    return driver


class TestReferenceFifo:
    @pytest.mark.parametrize("name,factory", POLICIES,
                             ids=[name for name, _ in POLICIES])
    @pytest.mark.parametrize("seed", range(4))
    def test_every_answer_matches_the_per_sector_fifo(self, name, factory,
                                                      seed):
        """At every classification -- a write's media-order check and a
        conflict-checked read's -NR check, at issue and on every wake-up --
        the index names the write the per-sector FIFO's head names; both
        are empty once the queue drains."""
        driver = replay(factory, seed)
        assert driver.idle
        assert not driver._writes
        assert not driver.reference
        blocked = [answer for answer in driver.answers if answer is not None]
        # the traffic must really exercise the overlap rules
        assert len(blocked) > 20
        assert len(driver.answers) > len(blocked)


def queued_driver():
    """A driver whose process has not run: issued writes stay queued."""
    engine = Engine()
    return DeviceDriver(engine, Disk(engine), FlagPolicy(FlagSemantics.IGNORE))


def write(driver, lbn, nsectors):
    return driver.write(lbn, bytes(512 * nsectors))


class TestBlockerRule:
    def test_oldest_write_reaching_the_first_sector_wins(self):
        """Older writes starting at or before the request's first sector and
        reaching it: the smallest id, whatever its start LBN, and ahead of
        an even older write that starts inside the request."""
        driver = queued_driver()
        inside = write(driver, 104, 4)         # id 1, starts inside
        far = write(driver, 80, 40)            # id 2, [80, 120)
        near = write(driver, 99, 3)            # id 3, [99, 102)
        write(driver, 60, 20)                  # id 4, ends at 80: misses
        request = write(driver, 100, 8)
        assert driver._overlap_blocker(request) == far.id
        assert near.id > far.id > inside.id

    def test_otherwise_the_first_older_write_by_start_lbn(self):
        """Nothing older reaches the first sector: the first older write by
        start LBN (then id), even when a later-starting one is older."""
        driver = queued_driver()
        later_start = write(driver, 206, 4)    # id 1
        first_start = write(driver, 203, 2)    # id 2
        write(driver, 203, 8)                  # id 3, same start, younger
        request = write(driver, 200, 12)
        assert driver._overlap_blocker(request) == first_start.id
        assert later_start.id < first_start.id

    def test_younger_writes_never_block(self):
        driver = queued_driver()
        request = write(driver, 300, 16)
        write(driver, 290, 40)
        write(driver, 304, 2)
        assert driver._overlap_blocker(request) is None

    def test_a_long_write_far_below_still_reaches(self):
        """The walk starts ``_longest_write - 1`` sectors below the request,
        so a long write that starts far below is still seen."""
        driver = queued_driver()
        long = write(driver, 1000, 128)
        write(driver, 1100, 2)
        request = write(driver, 1126, 4)
        assert driver._overlap_blocker(request) == long.id


DRIVER_DIR = os.path.dirname(repro.driver.__file__) + os.sep


def driver_calls(nsectors):
    """Python and C calls made from inside ``repro.driver`` while one write
    of *nsectors* at a cylinder-aligned LBN is issued and completed."""
    engine = Engine()
    driver = DeviceDriver(engine, Disk(engine),
                          FlagPolicy(FlagSemantics.IGNORE))
    data = bytes(512 * nsectors)
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if (event in ("call", "c_call")
                and frame.f_code.co_filename.startswith(DRIVER_DIR)):
            count += 1

    sys.setprofile(profile)
    try:
        request = driver.write(16 * 72 * 10, data)
        engine.run_until(request.done, max_events=10_000)
    finally:
        sys.setprofile(None)
    assert request.error is None
    return count


def test_bookkeeping_does_not_grow_with_request_length():
    """A write's issue, classification, dispatch and completion cost the
    driver per-request work: a 128-sector write makes no more calls than a
    2-sector one, give or take the dispatch loop's iteration count (which
    drive holds run in place).  A per-sector record of the write queue made
    this 422 calls against 49."""
    short = driver_calls(2)
    assert driver_calls(128) <= short + 5
