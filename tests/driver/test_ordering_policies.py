"""Flag semantics and chains eligibility.

The policies' own answers are unit-tested with no disk.  What the driver
decides from its own write extent index -- the ``-NR`` read conflict and
chains' read bypass -- and the dispatch order chains' dependencies produce
run through a :class:`DeviceDriver`: a policy keeps no record of the write
queue.
"""

import pytest

from repro.disk import Disk
from repro.driver import ChainsPolicy, DeviceDriver, FlagPolicy, FlagSemantics
from repro.driver.request import DiskRequest, IOKind
from repro.sim import Engine


def make_request(eng, rid, kind=IOKind.WRITE, lbn=0, nsectors=2,
                 flag=False, depends_on=None):
    data = b"\x00" * (nsectors * 512) if kind is IOKind.WRITE else None
    return DiskRequest(eng, rid, kind, lbn, nsectors, data=data, flag=flag,
                       depends_on=frozenset(depends_on or ()))


@pytest.fixture
def eng():
    return Engine()


def issue_all(policy, requests):
    for request in requests:
        policy.on_issue(request)


def busy_driver(eng, policy):
    """A driver whose drive is busy with a far-away write (LBN 500 000), so
    whatever is issued next queues up and the eligibility index orders it."""
    driver = DeviceDriver(eng, Disk(eng), policy)
    driver.write(500_000, bytes(1024))
    eng.run(until=0.0001)
    return driver


def completion_order(eng, driver, requests):
    for request in requests:
        eng.run_until(request.done)
    return [r.id for r in driver.trace]


class TestIgnore:
    def test_everything_eligible(self, eng):
        policy = FlagPolicy(FlagSemantics.IGNORE)
        reqs = [make_request(eng, i, flag=(i == 2)) for i in range(1, 5)]
        issue_all(policy, reqs)
        assert all(policy.may_dispatch(r) for r in reqs)


class TestPart:
    def test_flagged_blocks_later_requests_only(self, eng):
        policy = FlagPolicy(FlagSemantics.PART)
        w1 = make_request(eng, 1, lbn=0)
        wf = make_request(eng, 2, lbn=10, flag=True)
        w3 = make_request(eng, 3, lbn=20)
        issue_all(policy, [w1, wf, w3])
        assert policy.may_dispatch(w1)      # earlier than flag: free
        assert policy.may_dispatch(wf)      # the flagged request itself
        assert not policy.may_dispatch(w3)  # issued after the flag
        policy.on_complete(wf)
        assert policy.may_dispatch(w3)

    def test_reads_wait_without_nr(self, eng):
        policy = FlagPolicy(FlagSemantics.PART, read_bypass=False)
        wf = make_request(eng, 1, flag=True)
        rd = make_request(eng, 2, kind=IOKind.READ, lbn=100)
        issue_all(policy, [wf, rd])
        assert not policy.may_dispatch(rd)

    def test_reads_bypass_with_nr(self, eng):
        # the read is issued after the flag, yet C-LOOK (head past 500 000)
        # reaches it first and the driver lets it go
        driver = busy_driver(
            eng, FlagPolicy(FlagSemantics.PART, read_bypass=True))
        wf = driver.write(100_000, bytes(1024), flag=True)
        rd = driver.read(600_000, 2)
        order = completion_order(eng, driver, [wf, rd])
        assert order.index(rd.id) < order.index(wf.id)

    def test_nr_read_conflicting_with_pending_write_blocks(self, eng):
        # an *unflagged* earlier write: nothing in PART's flag order holds
        # the read, only the overlap does (C-LOOK would take LBN 100 first)
        driver = busy_driver(
            eng, FlagPolicy(FlagSemantics.PART, read_bypass=True))
        w = driver.write(102, bytes(4 * 512))
        rd = driver.read(100, 4)
        completion_order(eng, driver, [w, rd])
        assert rd.dispatch_time >= w.complete_time

    def test_nr_read_is_not_held_by_a_later_overlapping_write(self, eng):
        driver = busy_driver(
            eng, FlagPolicy(FlagSemantics.PART, read_bypass=True))
        rd = driver.read(100, 4)
        w = driver.write(102, bytes(4 * 512))
        completion_order(eng, driver, [w, rd])
        assert rd.complete_time <= w.dispatch_time


class TestBack:
    def test_later_requests_wait_for_flag_and_its_predecessors(self, eng):
        policy = FlagPolicy(FlagSemantics.BACK)
        w1 = make_request(eng, 1, lbn=0)
        wf = make_request(eng, 2, lbn=10, flag=True)
        w3 = make_request(eng, 3, lbn=20)
        issue_all(policy, [w1, wf, w3])
        assert policy.may_dispatch(w1)
        assert policy.may_dispatch(wf)  # flagged req reorders with prior non-flagged
        assert not policy.may_dispatch(w3)
        # completing only the flagged request is NOT enough under Back:
        policy.on_complete(wf)
        assert not policy.may_dispatch(w3)
        policy.on_complete(w1)
        assert policy.may_dispatch(w3)


class TestFull:
    def test_flagged_request_waits_for_all_predecessors(self, eng):
        policy = FlagPolicy(FlagSemantics.FULL)
        w1 = make_request(eng, 1, lbn=0)
        wf = make_request(eng, 2, lbn=10, flag=True)
        issue_all(policy, [w1, wf])
        assert policy.may_dispatch(w1)
        assert not policy.may_dispatch(wf)   # unlike Back/Part
        policy.on_complete(w1)
        assert policy.may_dispatch(wf)

    def test_nothing_passes_an_incomplete_flagged_request(self, eng):
        policy = FlagPolicy(FlagSemantics.FULL)
        wf = make_request(eng, 1, flag=True)
        w2 = make_request(eng, 2, lbn=20)
        issue_all(policy, [wf, w2])
        assert not policy.may_dispatch(w2)
        policy.on_complete(wf)
        assert policy.may_dispatch(w2)

    def test_full_is_more_restrictive_than_back_than_part(self, eng):
        """The paper's ordering: Full ⊇ Back ⊇ Part in restrictiveness."""
        scenarios = []
        for semantics in (FlagSemantics.FULL, FlagSemantics.BACK,
                          FlagSemantics.PART):
            policy = FlagPolicy(semantics)
            reqs = [make_request(eng, 1, lbn=0),
                    make_request(eng, 2, lbn=10, flag=True),
                    make_request(eng, 3, lbn=20)]
            issue_all(policy, reqs)
            scenarios.append(sum(policy.may_dispatch(r) for r in reqs))
        full, back, part = scenarios
        assert full <= back <= part


class TestChains:
    def test_dependency_gating(self, eng):
        # C-LOOK from LBN 500 000 would take w2 (600 000) before w3 and w1
        driver = busy_driver(eng, ChainsPolicy())
        w1 = driver.write(900_000, bytes(1024))
        w2 = driver.write(600_000, bytes(1024), depends_on=frozenset([w1.id]))
        w3 = driver.write(700_000, bytes(1024))  # independent
        order = completion_order(eng, driver, [w1, w2, w3])
        assert order.index(w1.id) < order.index(w2.id)
        # no false dependency (vs flag schemes)
        assert order.index(w3.id) < order.index(w2.id)

    def test_transitive_chain(self, eng):
        policy = ChainsPolicy()
        reqs = [make_request(eng, 1),
                make_request(eng, 2, depends_on=[1]),
                make_request(eng, 3, depends_on=[2])]
        issue_all(policy, reqs)
        assert [policy.blocking_deps(r) for r in reqs] == [[], [1], [2]]
        policy.on_complete(reqs[0])
        policy.on_complete(reqs[1])
        assert policy.blocking_deps(reqs[2]) == []

    def test_future_dependency_rejected(self, eng):
        policy = ChainsPolicy()
        bad = make_request(eng, 1, depends_on=[5])
        with pytest.raises(ValueError, match="previously issued"):
            policy.on_issue(bad)

    def test_reads_bypass_naturally(self, eng):
        # the read is issued behind a held write and does not wait for it
        driver = busy_driver(eng, ChainsPolicy())
        w1 = driver.write(900_000, bytes(1024))
        w2 = driver.write(100_000, bytes(1024), depends_on=frozenset([w1.id]))
        rd = driver.read(600_000, 2)
        order = completion_order(eng, driver, [w1, w2, rd])
        assert order.index(rd.id) < order.index(w1.id) < order.index(w2.id)

    def test_read_of_pending_write_target_blocks(self, eng):
        driver = busy_driver(eng, ChainsPolicy())
        w1 = driver.write(102, bytes(4 * 512))
        rd = driver.read(100, 4)
        completion_order(eng, driver, [w1, rd])
        assert rd.dispatch_time >= w1.complete_time

    def test_read_is_not_held_by_a_later_overlapping_write(self, eng):
        driver = busy_driver(eng, ChainsPolicy())
        rd = driver.read(100, 4)
        w1 = driver.write(102, bytes(4 * 512))
        completion_order(eng, driver, [w1, rd])
        assert rd.complete_time <= w1.dispatch_time


class TestRequestValidation:
    def test_read_with_flag_rejected(self, eng):
        with pytest.raises(ValueError):
            make_request(eng, 1, kind=IOKind.READ, flag=True)

    def test_write_without_data_rejected(self, eng):
        with pytest.raises(ValueError):
            DiskRequest(eng, 1, IOKind.WRITE, 0, 1)

    def test_zero_sectors_rejected(self, eng):
        with pytest.raises(ValueError):
            DiskRequest(eng, 1, IOKind.READ, 0, 0)
