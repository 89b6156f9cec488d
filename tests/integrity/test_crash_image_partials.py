"""Partial-write crash semantics of the replay oracle's ``crash_image``.

The drive lays sectors down in LBN order and each sector carries its own
ECC (paper, footnote 1), so a power failure mid-transfer leaves exactly a
sector *prefix* of the in-flight request -- never torn bytes inside a
sector, never a suffix.  These tests pin that contract, which the crash
explorer's mid-transfer enumeration depends on, and the NVRAM rule that
surviving mirror contents replay *over* whatever the platters hold.
"""

import pytest

from repro.costs import CostModel
from repro.disk.drive import InFlightWrite
from repro.integrity.explorer import build_machine, build_workload
from repro.harness.recording import record_run
from repro.integrity.invariants import classify_report
from repro.integrity.fsck import fsck
from repro.machine import Machine, MachineConfig
from tests.integrity.replay_oracle import crash_image

NSECTORS = 8


def sector_pattern(tag: int, sector_size: int) -> bytes:
    return bytes([tag]) * sector_size


def make_raw_machine() -> Machine:
    """A machine used as a raw block device (no file system needed)."""
    return Machine(MachineConfig(costs=CostModel(scale=0.0)))


def run_write_until_transfer(machine: Machine, lbn: int, data: bytes):
    """Issue one write and step until its media transfer is under way."""

    def writer():
        request = machine.driver.write(lbn, data, issuer="test")
        yield request.done

    machine.spawn(writer(), name="writer")
    guard = 0
    while machine.disk.in_flight is None:
        machine.engine.step()
        guard += 1
        assert guard < 100_000, "write never reached the media"
    return machine.disk.in_flight


class TestSectorsAppliedBy:
    """The pure arithmetic of the prefix model."""

    def test_boundaries(self):
        write = InFlightWrite(lbn=0, data=bytes(4 * 512), nsectors=4,
                              transfer_start=10.0, sector_period=0.5)
        assert write.sectors_applied_by(9.0) == 0
        assert write.sectors_applied_by(10.0) == 0
        # a sector counts only once fully transferred
        assert write.sectors_applied_by(10.49) == 0
        assert write.sectors_applied_by(10.5) == 1
        assert write.sectors_applied_by(11.25) == 2
        # ... and the count never exceeds the request
        assert write.sectors_applied_by(12.0) == 4
        assert write.sectors_applied_by(99.0) == 4

    def test_monotone_in_time(self):
        write = InFlightWrite(lbn=0, data=bytes(NSECTORS * 512),
                              nsectors=NSECTORS, transfer_start=0.0,
                              sector_period=0.125)
        counts = [write.sectors_applied_by(t / 16) for t in range(40)]
        assert counts == sorted(counts)
        assert counts[-1] == NSECTORS


@pytest.mark.parametrize("applied", range(NSECTORS + 1))
def test_mid_transfer_crash_keeps_exact_sector_prefix(applied):
    """Crash after k sectors: image = k new sectors + (n-k) old ones."""
    machine = make_raw_machine()
    sector_size = machine.disk.geometry.sector_size
    lbn = 5000
    old = b"".join(sector_pattern(0x10 + i, sector_size)
                   for i in range(NSECTORS))
    new = b"".join(sector_pattern(0xA0 + i, sector_size)
                   for i in range(NSECTORS))
    machine.disk.storage.write(lbn, old)

    in_flight = run_write_until_transfer(machine, lbn, new)
    assert in_flight.lbn == lbn and in_flight.data == new
    if applied == NSECTORS:
        crash_at = in_flight.transfer_start \
            + NSECTORS * in_flight.sector_period
    else:
        crash_at = in_flight.transfer_start \
            + (applied + 0.5) * in_flight.sector_period
    machine.engine.run_to(crash_at, max_events=100_000)

    image = crash_image(machine)
    survivor = image.read(lbn, NSECTORS)
    cut = applied * sector_size
    assert survivor[:cut] == new[:cut]
    assert survivor[cut:] == old[cut:]
    # neighbours untouched
    assert image.read(lbn - 1) == bytes(sector_size)
    assert image.read(lbn + NSECTORS) == bytes(sector_size)


def test_start_boundary_keeps_old_contents():
    machine = make_raw_machine()
    sector_size = machine.disk.geometry.sector_size
    lbn = 4096
    old = sector_pattern(0x11, sector_size) * NSECTORS
    new = sector_pattern(0xEE, sector_size) * NSECTORS
    machine.disk.storage.write(lbn, old)
    in_flight = run_write_until_transfer(machine, lbn, new)
    machine.engine.run_to(in_flight.transfer_start, max_events=100_000)
    assert crash_image(machine).read(lbn, NSECTORS) == old


def test_completion_boundary_keeps_new_contents():
    machine = make_raw_machine()
    sector_size = machine.disk.geometry.sector_size
    lbn = 4096
    old = sector_pattern(0x11, sector_size) * NSECTORS
    new = sector_pattern(0xEE, sector_size) * NSECTORS
    machine.disk.storage.write(lbn, old)
    in_flight = run_write_until_transfer(machine, lbn, new)
    complete = in_flight.transfer_start \
        + NSECTORS * in_flight.sector_period
    machine.engine.run_to(complete, max_events=100_000)
    assert machine.disk.in_flight is None, \
        "completion event at the boundary must have been processed"
    assert crash_image(machine).read(lbn, NSECTORS) == new


def test_crash_image_is_a_snapshot():
    """Mutating the image must not leak back into the live platters."""
    machine = make_raw_machine()
    sector_size = machine.disk.geometry.sector_size
    machine.disk.storage.write(100, sector_pattern(0x01, sector_size))
    image = crash_image(machine)
    image.write(100, sector_pattern(0xFF, sector_size))
    assert machine.disk.storage.read(100) == \
        sector_pattern(0x01, sector_size)


class TestNvramReplay:
    def test_mirror_wins_over_stale_platter(self):
        machine = build_machine("nvram")
        scheme = machine.scheme
        geometry = machine.config.fs_geometry
        spf = machine.fs.cache.sectors_per_frag
        sector_size = machine.disk.geometry.sector_size
        daddr = geometry.cg_data_start(0) + 40
        stale = sector_pattern(0x22, sector_size) * spf
        fresh = sector_pattern(0x99, sector_size) * spf
        machine.disk.storage.write(daddr * spf, stale)
        scheme._mirror[daddr] = fresh
        scheme.used_bytes += len(fresh)

        image = crash_image(machine)
        assert image.read(daddr * spf, spf) == fresh
        # the platters themselves were not rewritten -- only the image
        assert machine.disk.storage.read(daddr * spf, spf) == stale

    def test_mirror_wins_over_in_flight_partial(self):
        """NVRAM replay is applied after the in-flight prefix."""
        machine = build_machine("nvram")
        scheme = machine.scheme
        geometry = machine.config.fs_geometry
        spf = machine.fs.cache.sectors_per_frag
        sector_size = machine.disk.geometry.sector_size
        daddr = geometry.cg_data_start(0) + 41
        lbn = daddr * spf
        in_transit = sector_pattern(0x33, sector_size) * spf
        fresh = sector_pattern(0x44, sector_size) * spf
        machine.disk.in_flight = InFlightWrite(
            lbn=lbn, data=in_transit, nsectors=spf,
            transfer_start=machine.engine.now - 1.0, sector_period=1e9)
        scheme._mirror[daddr] = fresh
        scheme.used_bytes += len(fresh)
        assert crash_image(machine).read(lbn, spf) == fresh

    def test_unflushed_metadata_survives_via_replay(self):
        """Crash right when the workload ends, before any syncer flush:

        the dirty metadata exists only in memory + NVRAM, and the replayed
        image must still pass fsck with no corruption.
        """
        recording_machine = build_machine("nvram")
        recorded = record_run(
            recording_machine,
            build_workload(recording_machine, "microbench", 0, 12))

        machine = build_machine("nvram")
        workload = build_workload(machine, "microbench", 0, 12)
        machine.engine.process(workload, name="victim")
        machine.engine.run_to(recorded.workload_done, max_events=20_000_000)
        image = crash_image(machine)
        report = fsck(image, machine.config.fs_geometry)
        violations = classify_report(report)
        assert not any(v.is_corruption for v in violations), \
            [v.message for v in violations]
