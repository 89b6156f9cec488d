"""Tests for fsck's repair mode (the recovery step the paper's schemes
require after a crash: 'each requires assistance provided by the fsck
utility when recovering from system failure')."""

import pytest

from repro.integrity import CrashScheduler, fsck, repair
from tests.conftest import SMALL_GEOMETRY, make_machine, run_user
from tests.integrity.test_crash import churn_workload


@pytest.mark.parametrize("scheme", ["conventional", "flag", "chains",
                                    "softupdates"])
def test_crashed_safe_scheme_repairs_to_pristine(scheme):
    """After repair, a crashed image is completely clean (no warnings)."""
    machine = make_machine(scheme)
    image = CrashScheduler(machine).run_and_crash(
        churn_workload(machine, seed=4, operations=35), crash_at=2.0)
    before = fsck(image, SMALL_GEOMETRY)
    assert before.clean
    after = repair(image, SMALL_GEOMETRY)
    assert after.clean
    assert not after.warnings, after.warnings[:5]


def test_repair_reclaims_orphans_and_space():
    """Conventional create leaves orphans if the entry never lands; repair
    must reclaim the inode and its blocks."""
    machine = make_machine("conventional")

    def user():
        yield from machine.fs.write_file("/ghost", b"g" * 5000)

    run_user(machine, user())
    from repro.integrity import crash_image
    image = crash_image(machine)
    before = fsck(image, SMALL_GEOMETRY)
    assert any("orphan" in w for w in before.warnings)
    after = repair(image, SMALL_GEOMETRY)
    assert not after.warnings
    # only the root remains
    assert list(after.inodes) == [2]


def test_repair_fixes_link_counts():
    machine = make_machine("noorder")

    def user():
        yield from machine.fs.write_file("/a", b"a")
        yield from machine.fs.link("/a", "/b")
        yield from machine.fs.sync()

    run_user(machine, user())
    # sabotage: undercount the link on disk
    import struct
    geo = machine.fs.geometry
    report = fsck(machine.disk.storage, SMALL_GEOMETRY)
    ino = next(i for i, d in report.inodes.items() if d.nlink == 2)
    daddr = geo.inode_block_daddr(ino)
    spf = 2
    block = bytearray(machine.disk.storage.read(daddr * spf, 16))
    struct.pack_into("<H", block, geo.inode_offset_in_block(ino) + 2, 1)
    machine.disk.storage.write(daddr * spf, bytes(block))

    image = machine.disk.storage.snapshot()
    after = repair(image, SMALL_GEOMETRY)
    assert not after.warnings
    assert after.inodes[ino].nlink == 2


def test_repaired_image_is_mountable_and_usable():
    """The whole recovery path: crash, repair, remount, keep working."""
    machine = make_machine("softupdates")
    image = CrashScheduler(machine).run_and_crash(
        churn_workload(machine, seed=9, operations=30), crash_at=1.5)
    repaired = repair(image, SMALL_GEOMETRY)
    assert repaired.clean and not repaired.warnings

    # boot a fresh machine on the repaired image
    from repro.costs import CostModel
    from repro.machine import Machine, MachineConfig
    from repro.ordering import SoftUpdatesScheme
    reborn = Machine(MachineConfig(scheme=SoftUpdatesScheme(),
                                   fs_geometry=SMALL_GEOMETRY,
                                   cache_bytes=2 * 1024 * 1024,
                                   costs=CostModel(scale=0.0)))
    reborn.adopt_image(image)

    def user():
        yield from reborn.fs.write_file("/after-recovery", b"alive")
        data = yield from reborn.fs.read_file("/after-recovery")
        yield from reborn.fs.sync()
        return data

    assert run_user(reborn, user()) == b"alive"
    final = fsck(reborn.disk.storage, SMALL_GEOMETRY)
    assert final.clean and not final.warnings


def test_directory_past_the_direct_blocks_is_clean():
    """A directory of 420 entries with 240-character names fills 14 blocks,
    two of them through its single-indirect block.  Every entry is read,
    so the synced image has no orphans and repair keeps every inode."""
    from repro.fs.layout import FSGeometry
    geometry = FSGeometry()
    machine = make_machine("conventional", geometry=geometry)
    names = [f"{index:03d}".ljust(240, "x") for index in range(420)]

    def user():
        yield from machine.fs.mkdir("/big")
        for name in names:
            handle = yield from machine.fs.create(f"/big/{name}")
            yield from machine.fs.close(handle)
        yield from machine.fs.sync()

    run_user(machine, user())
    image = machine.disk.storage.snapshot()
    report = fsck(image, geometry)
    big = max(report.inodes.values(), key=lambda din: din.size)
    assert big.size > geometry.NDADDR * geometry.block_size
    assert report.clean and not report.warnings, report.warnings[:3]
    assert len(report.inodes) == 422
    after = repair(image, geometry)
    assert after.clean and not after.warnings
    assert len(after.inodes) == 422
