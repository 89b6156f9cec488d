"""End-to-end fault recovery: drive faults, driver retries, scheme survival.

The acceptance bar from the fault-injection issue: under a seeded fault
plan every scheme either recovers to an fsck-clean image or surfaces a
*typed* degradation -- never silent corruption.  These tests force each
fault class with saturated rates and check the recovery machinery at each
layer: prefix persistence at the drive, bounded retry and REASSIGN BLOCKS
at the driver, B_ERROR propagation at the cache, dependency requeueing in
soft updates, and whole-image consistency after settling.
"""

import pytest

from repro.disk import Disk
from repro.driver import DeviceDriver, FlagPolicy, FlagSemantics
from repro.faults import EXHAUSTED, NOSPARE, FaultPlan, MediaError, PROFILES
from repro.integrity.fsck import fsck
from repro.ordering import AllocContext
from repro.sim import Engine, ProcessCrashed
from tests.conftest import SAFE_SCHEMES, SMALL_GEOMETRY, make_machine, run_user


def make_faulty_driver(plan):
    eng = Engine()
    disk = Disk(eng)
    disk.faults = plan.build()
    return eng, DeviceDriver(eng, disk, FlagPolicy(FlagSemantics.IGNORE))


def settle(machine, attempts=50):
    """Sync until convergence, re-trying through transient fault storms."""
    for _ in range(attempts):
        try:
            machine.sync_and_settle()
            return
        except ProcessCrashed as exc:
            if not isinstance(exc.original, MediaError):
                raise
            continue
    raise AssertionError(f"could not settle in {attempts} sync attempts")


def churn(machine, files=8):
    fs = machine.fs

    def user():
        yield from fs.mkdir("/d")
        for index in range(files):
            yield from fs.write_file(f"/d/f{index}", b"x" * 2048)
        for index in range(0, files, 2):
            yield from fs.unlink(f"/d/f{index}")

    return user()


# ---------------------------------------------------------------------------
# drive + driver layer


def test_transient_write_recovered_by_retry():
    eng, driver = make_faulty_driver(
        FaultPlan(seed=1, transient_write_rate=0.6))
    req = driver.write(1000, b"\xab" * 1024)
    eng.run_until(req.done)
    assert req.error is None
    assert driver.disk.storage.read(1000, 2) == b"\xab" * 1024
    assert driver.retries == driver.disk.faults.injected > 0


def test_torn_write_persists_prefix_then_retry_completes_it():
    eng, driver = make_faulty_driver(FaultPlan(seed=2, torn_write_rate=1.0))
    driver.max_retries = 2
    old = driver.disk.storage.read(500, 8)
    req = driver.write(500, b"\xcd" * (8 * 512))
    eng.run_until(req.done)
    # every attempt tears, so the request fails -- but each tear laid down
    # a sector prefix (the longest attempt wins), and the tail past the
    # longest prefix still holds the old bytes: never a mix inside a sector
    assert req.error == EXHAUSTED
    surviving = driver.disk.storage.read(500, 8)
    applied = driver.disk.sense.sectors_applied
    assert 0 < applied < 8
    assert surviving[:applied * 512] == b"\xcd" * (applied * 512)
    new_sectors = sum(
        1 for s in range(8)
        if surviving[s * 512:(s + 1) * 512] == b"\xcd" * 512)
    assert applied <= new_sectors < 8
    for s in range(new_sectors, 8):
        assert surviving[s * 512:(s + 1) * 512] == old[s * 512:(s + 1) * 512]


def test_grown_defect_reassigned_and_write_lands():
    eng, driver = make_faulty_driver(
        FaultPlan(seed=3, grown_defect_rate=0.5))
    for index in range(6):
        req = driver.write(2000 + 8 * index, b"\x11" * (8 * 512))
        eng.run_until(req.done)
        assert req.error is None
    assert driver.remaps > 0
    assert driver.disk.faults.reassigned
    assert not driver.disk.faults.bad_sectors  # all healed


def test_spare_exhaustion_fails_write_with_nospare():
    eng, driver = make_faulty_driver(
        FaultPlan(seed=4, grown_defect_rate=1.0, spares=3))
    req = driver.write(3000, b"\x22" * (8 * 512))
    eng.run_until(req.done)
    assert req.error == NOSPARE
    assert driver.io_errors == 1
    assert driver.disk.faults.spares_left == 0


def test_latent_defect_read_fails_immediately_with_eio():
    eng, driver = make_faulty_driver(
        FaultPlan(seed=5, latent_defect_rate=1.0))
    req = driver.read(4000, 8)
    eng.run_until(req.done)
    assert req.error == "EIO"
    # a medium read never retries: the data is gone, retrying is pointless
    assert driver.retries == 0


def test_timeout_costs_the_penalty_then_recovers():
    plan = FaultPlan(seed=6, timeout_rate=0.9, timeout_penalty=0.25)
    eng, driver = make_faulty_driver(plan)
    driver.max_retries = 50  # enough budget to outlast a 0.9 timeout storm
    req = driver.write(5000, b"\x33" * 512)
    eng.run_until(req.done)
    assert req.error is None
    assert driver.disk.faults.injected > 0
    assert eng.now > plan.timeout_penalty  # the stall actually happened


# ---------------------------------------------------------------------------
# cache layer


def test_read_eio_raises_media_error_through_bread():
    machine = make_machine("conventional")
    run_user(machine, machine.fs.write_file("/victim", b"v" * 4096))
    machine.sync_and_settle()
    machine.drop_caches()
    machine.disk.faults = FaultPlan(seed=7, latent_defect_rate=1.0).build()

    with pytest.raises(ProcessCrashed) as excinfo:
        run_user(machine, machine.fs.read_file("/victim"))
    assert isinstance(excinfo.value.original, MediaError)
    assert excinfo.value.original.code == "EIO"
    assert machine.cache.read_errors > 0
    assert machine.disk.faults.degradations()
    # the failed read must not leave its buffer busy (B_BUSY leak)
    assert all(not buf.busy for buf in machine.cache._buffers.values())


def test_failed_delayed_write_is_redirtied_for_retry():
    machine = make_machine("noorder")
    machine.disk.faults = FaultPlan(seed=8, transient_write_rate=0.97).build()
    machine.driver.max_retries = 1
    run_user(machine, machine.fs.write_file("/f", b"y" * 1024))
    settle(machine)
    assert machine.cache.write_retries > 0
    assert not machine.cache.lost_writes
    report = fsck(machine.disk.storage, SMALL_GEOMETRY)
    assert report.clean, report.errors


# ---------------------------------------------------------------------------
# scheme layer


@pytest.mark.parametrize("scheme_name", SAFE_SCHEMES)
def test_scheme_recovers_clean_under_recoverable_fault_storm(scheme_name):
    machine = make_machine(
        scheme_name,
        faults=FaultPlan(seed=9, transient_write_rate=0.3,
                         torn_write_rate=0.2, transient_read_rate=0.2,
                         grown_defect_rate=0.1, timeout_rate=0.05))
    run_user(machine, churn(machine))
    settle(machine)
    assert machine.disk.faults.injected > 0
    assert machine.driver.retries > 0
    report = fsck(machine.disk.storage, SMALL_GEOMETRY)
    assert report.clean, report.errors
    assert not machine.cache.lost_writes


@pytest.mark.parametrize("scheme_name", ["conventional", "flag", "chains"])
def test_frag_move_inode_read_eio_releases_held_buffers(scheme_name,
                                                        monkeypatch):
    """A fragment extended by moving it orders the moved pointer through
    the inode block; when reading that block fails, the hook's held
    pointer-owning and data buffers are released, not left busy for the
    next getblk of either to wait on forever."""
    machine = make_machine(scheme_name)
    fs, cache, geo = machine.fs, machine.cache, machine.fs.geometry
    run_user(machine, fs.write_file("/f", b"x" * 1024))
    ip = run_user(machine, fs.namei("/f"))

    def unreadable_inode_block(ino):
        raise MediaError(geo.inode_block_daddr(ino))
        yield  # pragma: no cover - keeps this a generator

    monkeypatch.setattr(fs, "load_inode_buf", unreadable_inode_block)
    old, new = geo.total_frags - 16, geo.total_frags - 8
    held = []

    def extend_by_move():
        held.append((yield from cache.getblk(new - 8, geo.block_size)))
        held.append((yield from cache.getblk(new, 2 * geo.frag_size)))
        ctx = AllocContext(ip=ip, lblk=0, owner_kind="indirect",
                           ibuf=held[0], slot=0, new_daddr=new, new_frags=2,
                           old_daddr=old, old_frags=1, data_buf=held[1],
                           is_metadata=False)
        yield from machine.scheme.block_allocated(ctx)

    with pytest.raises(ProcessCrashed) as excinfo:
        run_user(machine, extend_by_move())
    assert isinstance(excinfo.value.original, MediaError)
    assert [buf.busy for buf in held] == [False, False]

    def regrab():
        for buf in held:
            again = yield from cache.getblk(buf.daddr, buf.size)
            cache.brelse(again)

    run_user(machine, regrab(), max_events=10_000)


def test_softupdates_requeues_dependencies_on_failed_write():
    machine = make_machine(
        "softupdates",
        faults=FaultPlan(seed=10, transient_write_rate=0.9))
    machine.driver.max_retries = 1
    run_user(machine, churn(machine, files=10))
    settle(machine)
    manager = machine.scheme.manager
    assert manager.requeues > 0
    assert any(event.kind == "requeue"
               for event in machine.disk.faults.events)
    # after settling, every requeued batch was eventually retired
    assert manager.pending() == 0
    report = fsck(machine.disk.storage, SMALL_GEOMETRY)
    assert report.clean, report.errors


def test_explorer_profile_sweep_matches_harness_verdicts():
    """The harness cell runner classifies a recoverable profile clean."""
    from repro.harness.faults import run_cell

    cell = run_cell("softupdates", "transient", seed=1, operations=20)
    assert cell.verdict in ("clean", "recovered")
    assert cell.fsck_errors == 0


def test_wedged_cell_fails_on_its_event_budget(monkeypatch):
    """A victim waiting on an event that never fires would run forever
    (the syncer keeps the event heap busy); the cell's event budget turns
    it into a typed ``wedged`` degradation and the cell returns."""
    from repro.harness import faults

    def never_wakes(machine, seed, operations):
        yield machine.engine.event()

    monkeypatch.setattr(faults, "churn_workload", never_wakes)
    monkeypatch.setattr(faults, "MAX_EVENTS", 10_000)
    cell = faults.run_cell("softupdates", "none", seed=1, operations=20)
    assert any("wedged: victim: exceeded max_events" in entry
               for entry in cell.degradations), cell.degradations
    assert cell.verdict == "recovered"
