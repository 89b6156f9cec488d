"""Integration tests for the Disk drive model."""

import random

import pytest

from repro.disk import Disk, DiskGeometry, DiskParameters
from repro.faults import Fault, FaultKind, FaultPlan
from repro.sim import Engine


@pytest.fixture
def eng():
    return Engine()


@pytest.fixture
def disk(eng):
    return Disk(eng)


def run_io(eng, disk, lbn, nsectors, is_write, data=None):
    def op():
        service = yield from disk.service(lbn, nsectors, is_write, data)
        return service

    return eng.run_until(eng.process(op()))


def test_write_persists_to_storage(eng, disk):
    data = b"\x5a" * 512
    run_io(eng, disk, 42, 1, True, data)
    assert disk.storage.read(42) == data


def test_read_returns_no_data_but_caches(eng, disk):
    run_io(eng, disk, 42, 4, False)
    assert disk.cache.lookup(42, 4)


def test_service_time_within_mechanical_bounds(eng, disk):
    service = run_io(eng, disk, 500_000, 16, True, b"\x00" * (16 * 512))
    params, geo = disk.params, disk.geometry
    minimum = params.controller_overhead + params.transfer_time(geo, 16)
    maximum = (params.controller_overhead + params.seek_time(0, geo.cylinders)
               + params.rotation_time + params.transfer_time(geo, 16))
    assert minimum <= service <= maximum


def test_cache_hit_read_much_faster_than_media_read(eng, disk):
    first = run_io(eng, disk, 10_000, 8, False)
    second = run_io(eng, disk, 10_000, 8, False)
    assert second < first / 3
    assert disk.stats.cache_hit_reads == 1


def test_sequential_reads_hit_prefetch(eng, disk):
    run_io(eng, disk, 1000, 8, False)
    follow_on = run_io(eng, disk, 1008, 8, False)
    params, geo = disk.params, disk.geometry
    assert follow_on < params.controller_overhead + params.bus_time(geo, 8) + 1e-9


def test_write_invalidates_onboard_cache(eng, disk):
    run_io(eng, disk, 1000, 8, False)
    run_io(eng, disk, 1002, 1, True, b"\xff" * 512)
    assert not disk.cache.lookup(1000, 8)


def test_same_cylinder_access_cheaper_than_far_seek(eng, disk):
    run_io(eng, disk, 0, 1, True, b"\x00" * 512)
    near = run_io(eng, disk, 4, 1, True, b"\x00" * 512)
    # re-home then long seek
    disk._current_cylinder = 0
    far = run_io(eng, disk, disk.geometry.total_sectors - 100, 1, True,
                 b"\x00" * 512)
    assert near < far


def test_instant_mode_is_free_and_persistent(eng, disk):
    disk.instant = True
    service = run_io(eng, disk, 9, 1, True, b"\x77" * 512)
    assert service == 0.0
    assert eng.now == 0.0
    assert disk.storage.read(9) == b"\x77" * 512


def test_write_without_data_rejected(eng, disk):
    with pytest.raises(Exception):
        run_io(eng, disk, 0, 1, True, None)


def test_wrong_size_data_rejected(eng, disk):
    with pytest.raises(Exception):
        run_io(eng, disk, 0, 2, True, b"\x00" * 512)


def test_stats_accumulate(eng, disk):
    run_io(eng, disk, 0, 1, True, b"\x00" * 512)
    run_io(eng, disk, 100, 2, False)
    assert disk.stats.writes == 1
    assert disk.stats.reads == 1
    assert disk.stats.sectors_written == 1
    assert disk.stats.sectors_read == 2
    assert disk.stats.busy_time > 0
    assert len(disk.stats.service_times) == 2


def test_in_flight_exposed_during_write_transfer(eng, disk):
    observed = []

    def op():
        yield from disk.service(0, 72, True, b"\x01" * (72 * 512))

    def spy():
        # sample mid-way through the (at least one revolution) transfer
        yield eng.timeout(disk.params.controller_overhead
                          + disk.params.rotation_time * 1.2)
        observed.append(disk.in_flight)

    writer = eng.process(op())
    eng.process(spy())
    eng.run_until(writer)
    assert disk.in_flight is None
    assert observed and observed[0] is not None
    applied = observed[0].sectors_applied_by(
        observed[0].transfer_start + 10 * observed[0].sector_period)
    assert applied == 10


def test_service_time_stats_stream_without_retaining_samples(eng, disk):
    """Regression: service times aggregate in O(1) memory by default."""
    for index in range(50):
        run_io(eng, disk, index * 16, 1, True, b"\x00" * 512)
    stats = disk.stats.service_times
    assert len(stats) == stats.count == 50
    assert stats.min <= stats.mean <= stats.max
    assert abs(stats.total - stats.mean * 50) < 1e-9
    # scalars only: the aggregate has no per-sample storage to grow
    assert stats.__slots__ == ("count", "total", "min", "max")


def test_started_counters_match_completions_when_fault_free(eng, disk):
    run_io(eng, disk, 0, 1, True, b"\x00" * 512)
    run_io(eng, disk, 100, 2, False)
    assert disk.stats.writes_started == disk.stats.writes == 1
    assert disk.stats.reads_started == disk.stats.reads == 1
    assert disk.stats.aborted_reads == disk.stats.aborted_writes == 0
    assert disk.stats.read_faults == disk.stats.write_faults == 0


def test_faulted_operations_counted_separately(eng, disk):
    disk.faults = FaultPlan(seed=1, transient_write_rate=1.0).build()
    # the raw drive has no retry loop: the fault consumes service time,
    # leaves sense data for the driver, and completes nothing
    run_io(eng, disk, 0, 1, True, b"\x00" * 512)
    assert disk.stats.writes_started == 1
    assert disk.stats.writes == 0          # never completed
    assert disk.stats.write_faults == 1
    assert disk.stats.sectors_written == 0
    assert disk.sense == Fault(FaultKind.TRANSIENT)


class HeldWrites(Disk):
    """A drive that remembers every record ``in_flight`` ever held."""

    def __init__(self, engine):
        self.held = []
        super().__init__(engine)

    @property
    def in_flight(self):
        return self._in_flight

    @in_flight.setter
    def in_flight(self, write):
        if write is not None:
            self.held.append(write)
        self._in_flight = write


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("rates", [
    {},
    {"transient_write_rate": 0.4},
    {"torn_write_rate": 0.4},
    {"grown_defect_rate": 0.4},
    {"timeout_rate": 0.4},
    {"transient_write_rate": 0.15, "torn_write_rate": 0.15,
     "grown_defect_rate": 0.15, "timeout_rate": 0.15},
], ids=["none", "transient", "torn", "medium", "timeout", "mixed"])
def test_every_started_transfer_reaches_every_observer_once(rates, seed):
    """The contract of ``write_observers``: each write whose transfer
    starts is handed to every observer exactly once, when its media
    operation ends, as the very record ``in_flight`` held -- on the
    success path and on every faulted one; a timeout never starts."""
    eng = Engine()
    disk = HeldWrites(eng)
    disk.faults = FaultPlan(seed=seed, **rates).build()
    seen = [[], []]

    def observer(into):
        def observe(write):
            assert disk.in_flight is None
            assert write.end == eng.now >= write.transfer_start
            assert 0 <= write.durable <= write.nsectors
            assert len(write.data) == write.nsectors * 512
            into.append(write)
        return observe

    disk.write_observers += [observer(seen[0]), observer(seen[1])]
    rng = random.Random(seed)
    outcomes = []

    def writer():
        for _ in range(60):
            nsectors = rng.randrange(1, 9)
            lbn = rng.randrange(0, 4096)
            data = rng.randbytes(nsectors * 512)
            yield from disk.service(lbn, nsectors, True, data)
            outcomes.append((lbn, nsectors, data, disk.sense))

    eng.run_until(eng.process(writer()))
    assert disk.in_flight is None
    for into in seen:
        assert len(into) == len(disk.held)
        assert all(a is b for a, b in zip(into, disk.held))
    started = [o for o in outcomes
               if o[3] is None or o[3].kind is not FaultKind.TIMEOUT]
    assert len(started) == len(disk.held)
    assert len(outcomes) - len(started) == sum(
        1 for event in disk.faults.events
        if event.detail.startswith("timeout"))
    for (lbn, nsectors, data, sense), write in zip(started, disk.held):
        assert (write.lbn, write.nsectors) == (lbn, nsectors)
        assert write.data is data
        assert write.durable == (nsectors if sense is None
                                 else sense.sectors_applied)
    assert sum(w.durable for w in disk.held if w.durable == w.nsectors) \
        == disk.stats.sectors_written


#: one request, doomed by each plan: (rates, is_write)
DOOMED = {
    "transient-read": ({"transient_read_rate": 1.0}, False),
    "latent-defect-read": ({"latent_defect_rate": 1.0}, False),
    "transient-write": ({"transient_write_rate": 1.0}, True),
    "torn-write": ({"torn_write_rate": 1.0}, True),
}


@pytest.mark.parametrize("rates,is_write", DOOMED.values(), ids=DOOMED)
def test_a_doomed_request_runs_the_clean_mechanics(rates, is_write):
    """A fault is one outcome of the media operation, not another
    operation: the same request on a clean drive and on one whose plan
    dooms it seeks and rotates alike and leaves the head on the same
    cylinder; only a torn write's transfer stops early, at the failing
    sector, and a faulted read caches nothing."""
    lbn, nsectors = 400_000, 8
    data = bytes(range(256)) * 16 if is_write else None
    drives = []
    for plan in (None, FaultPlan(seed=7, **rates)):
        eng = Engine()
        disk = Disk(eng)
        disk.faults = plan and plan.build()
        disk.cache.insert_after_read(1000, 8)  # a segment the read must keep
        before = disk.cache.segments
        run_io(eng, disk, lbn, nsectors, is_write, data)
        drives.append((disk, before))
    (clean, _), (doomed, before) = drives
    assert clean.sense is None and doomed.sense is not None
    assert clean.stats.seek_time > 0
    assert doomed.stats.seek_time == clean.stats.seek_time
    assert doomed.stats.rotation_time == clean.stats.rotation_time
    assert doomed._current_cylinder == clean._current_cylinder
    if doomed.sense.kind is FaultKind.TORN:
        applied = doomed.sense.sectors_applied
        assert 0 < applied < nsectors
        assert doomed.stats.transfer_time == applied * doomed.params.\
            sector_period(doomed.geometry)
    else:
        assert doomed.stats.transfer_time == clean.stats.transfer_time
    if is_write:
        assert doomed.cache.segments == clean.cache.segments
    else:
        assert clean.cache.segments != before
        assert doomed.cache.segments == before
