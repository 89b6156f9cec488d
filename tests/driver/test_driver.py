"""Integration tests: DeviceDriver + Disk + ordering policies."""

import pytest

from repro.disk import Disk
from repro.driver import ChainsPolicy, DeviceDriver, FlagPolicy, FlagSemantics, IOKind
from repro.driver.request import CompletedRequest
from repro.sim import Engine


@pytest.fixture
def eng():
    return Engine()


def make_driver(eng, policy=None):
    disk = Disk(eng)
    return DeviceDriver(eng, disk, policy or FlagPolicy(FlagSemantics.IGNORE))


def sector_data(tag, nsectors=2):
    return bytes([tag]) * (512 * nsectors)


def test_single_write_completes_and_persists(eng):
    driver = make_driver(eng)
    req = driver.write(100, sector_data(0x42))
    eng.run_until(req.done)
    assert driver.disk.storage.read(100) == b"\x42" * 512
    assert req.complete_time > req.issue_time >= 0
    # the trace keeps one read-only row per request, field for field
    assert list(driver.trace) == [
        tuple(getattr(req, name) for name in CompletedRequest._fields)]


def test_misaligned_write_is_refused_at_issue(eng):
    """A payload that is not a whole number of sectors was once accepted as a
    shorter request; the drive then refused it inside the dispatch loop,
    killing the driver process, and every later request hung."""
    driver = make_driver(eng)
    with pytest.raises(ValueError, match="lbn 100: 700 bytes"):
        driver.write(100, b"\x01" * 700)
    assert not driver._pending
    req = driver.read(100, 2)
    eng.run_until(req.done, max_events=10_000)
    assert req.error is None and req.complete_time > 0


@pytest.mark.parametrize("kind,lbn,nsectors", [
    ("read", "last", 4), ("write", "last", 4), ("read", -1, 2),
    ("write", -2, 4), ("read", "end", 1)])
def test_out_of_range_request_is_refused_at_issue(eng, kind, lbn, nsectors):
    """A range past either end of the disk was once accepted, and the drive
    then refused it inside the dispatch loop: the driver process died and
    every later request hung.  It is refused at the call, naming the range,
    and the driver serves the next request."""
    driver = make_driver(eng)
    total = driver.disk.geometry.total_sectors
    lbn = {"last": total - 1, "end": total}.get(lbn, lbn)
    with pytest.raises(ValueError, match=rf"\[{lbn}, {lbn + nsectors}\) "
                                         rf"outside disk \(0\.\.{total - 1}\)"):
        if kind == "read":
            driver.read(lbn, nsectors)
        else:
            driver.write(lbn, sector_data(7, nsectors))
    assert not driver._pending and driver.last_issued_id == 0
    tail = driver.write(total - 4, sector_data(9, 4))
    eng.run_until(tail.done, max_events=10_000)
    assert tail.error is None
    assert driver.disk.storage.read(total - 1) == b"\x09" * 512


def test_write_data_must_be_whole_sectors_at_issue(eng):
    """``issue`` is public: data that is not *nsectors* whole sectors is
    refused there too, not only by the ``write`` wrapper."""
    driver = make_driver(eng)
    with pytest.raises(ValueError, match="lbn 100: 1024 bytes is not 4"):
        driver.issue(IOKind.WRITE, 100, 4, data=bytes(1024))
    assert not driver._pending
    req = driver.issue(IOKind.WRITE, 100, 2, data=bytes(1024))
    eng.run_until(req.done, max_events=10_000)
    assert req.error is None


def test_read_completes(eng):
    driver = make_driver(eng)
    req = driver.read(100, 2)
    eng.run_until(req.done)
    assert req.response_time > 0


def test_elevator_orders_by_lbn(eng):
    driver = make_driver(eng)
    # issue far-apart writes in reverse LBN order while disk busy with first
    first = driver.write(500_000, sector_data(1))
    c = driver.write(900_000, sector_data(3))
    b = driver.write(700_000, sector_data(2))
    a = driver.write(600_000, sector_data(4))
    for req in (first, a, b, c):
        eng.run_until(req.done)
    order = [r.id for r in driver.trace]
    assert order == [first.id, a.id, b.id, c.id]


def test_sequential_requests_concatenate(eng):
    driver = make_driver(eng)
    # occupy the disk, then queue contiguous writes
    blocker = driver.write(500_000, sector_data(9))
    reqs = [driver.write(1000 + i * 2, sector_data(i)) for i in range(4)]
    for req in [blocker] + reqs:
        eng.run_until(req.done)
    # all four contiguous writes complete at the same instant (one media op)
    times = {r.complete_time for r in reqs}
    assert len(times) == 1
    assert driver.disk.stats.writes == 2  # blocker + one concatenated op


def test_concatenation_respects_batch_cap(eng):
    driver = make_driver(eng)
    driver.max_batch_sectors = 4
    blocker = driver.write(500_000, sector_data(9))
    reqs = [driver.write(1000 + i * 2, sector_data(i)) for i in range(4)]
    for req in [blocker] + reqs:
        eng.run_until(req.done)
    assert driver.disk.stats.writes == 3  # blocker + two capped batches


def test_part_flag_holds_back_later_writes(eng):
    driver = make_driver(eng, FlagPolicy(FlagSemantics.PART))
    blocker = driver.write(500_000, sector_data(9))
    flagged = driver.write(900_000, sector_data(1), flag=True)
    later = driver.write(600_000, sector_data(2))  # closer, but must wait
    for req in (blocker, flagged, later):
        eng.run_until(req.done)
    ids = [r.id for r in driver.trace]
    assert ids.index(flagged.id) < ids.index(later.id)


def test_ignore_flag_reorders_freely(eng):
    driver = make_driver(eng, FlagPolicy(FlagSemantics.IGNORE))
    blocker = driver.write(500_000, sector_data(9))
    flagged = driver.write(900_000, sector_data(1), flag=True)
    later = driver.write(600_000, sector_data(2))
    for req in (blocker, flagged, later):
        eng.run_until(req.done)
    ids = [r.id for r in driver.trace]
    assert ids.index(later.id) < ids.index(flagged.id)


def test_chains_enforce_dependencies_across_dispatch(eng):
    driver = make_driver(eng, ChainsPolicy())
    blocker = driver.write(500_000, sector_data(9))
    w1 = driver.write(900_000, sector_data(1))
    w2 = driver.write(600_000, sector_data(2), depends_on=frozenset([w1.id]))
    for req in (blocker, w1, w2):
        eng.run_until(req.done)
    ids = [r.id for r in driver.trace]
    assert ids.index(w1.id) < ids.index(w2.id)


def test_nr_read_bypasses_flag_pending_writes(eng):
    driver = make_driver(eng, FlagPolicy(FlagSemantics.PART, read_bypass=True))
    blocker = driver.write(500_000, sector_data(9))
    flagged = driver.write(900_000, sector_data(1), flag=True)
    held = driver.write(600_000, sector_data(2))
    read = driver.read(100, 2)
    eng.run_until(read.done)
    # the read finished while the held write still waits behind the flag
    assert held.complete_time < 0
    for req in (blocker, flagged, held):
        eng.run_until(req.done)


def test_on_complete_callbacks_fire_in_driver_context(eng):
    driver = make_driver(eng)
    seen = []
    req = driver.write(100, sector_data(1))
    req.on_complete.append(lambda r: seen.append((r.id, eng.now)))
    eng.run_until(req.done)
    assert seen and seen[0][0] == req.id
    assert seen[0][1] == req.complete_time


def test_drain_waits_for_queue_empty(eng):
    driver = make_driver(eng)
    reqs = [driver.write(1000 * i, sector_data(i)) for i in range(5)]

    def waiter():
        yield from driver.drain()
        return eng.now

    drained_at = eng.run_until(eng.process(waiter()))
    assert all(r.complete_time <= drained_at for r in reqs)
    assert not driver._pending


def test_requests_issued_counter(eng):
    driver = make_driver(eng)
    for i in range(3):
        eng.run_until(driver.write(1000 * i, sector_data(i)).done)
    assert driver.requests_issued == 3


def test_progress_guaranteed_under_every_policy(eng):
    """Whatever the semantics, a mixed flagged workload always drains."""
    for semantics in FlagSemantics:
        for bypass in (False, True):
            engine = Engine()
            disk = Disk(engine)
            driver = DeviceDriver(engine, disk, FlagPolicy(semantics, bypass))
            reqs = []
            for i in range(12):
                if i % 3 == 0:
                    reqs.append(driver.read(50_000 * i + 8, 2))
                else:
                    reqs.append(driver.write(50_000 * i,
                                             sector_data(i % 250),
                                             flag=(i % 2 == 0)))
            for req in reqs:
                engine.run_until(req.done, max_events=100_000)
