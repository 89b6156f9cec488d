"""Crash-consistency tests: the paper's integrity claims, verified.

Safe schemes (Conventional, Scheduler Flag, Scheduler Chains, Soft Updates)
must never leave an fsck *error* behind, whatever instant the power fails.
No Order must be demonstrably unsafe.  Allocation initialization must close
the stale-data security hole.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.integrity import find_secret_leaks, fsck, plant_secrets
from tests.conftest import SMALL_GEOMETRY, make_machine, run_user
from tests.integrity.replay_oracle import crash_image, run_and_crash


def churn_workload(machine, seed, operations=40):
    """A random mix of creates, writes, removes, mkdirs and renames."""
    rng = random.Random(seed)

    def body():
        live_files = []
        live_dirs = ["/"]
        counter = 0
        for _ in range(operations):
            action = rng.random()
            if action < 0.45 or not live_files:
                parent = rng.choice(live_dirs)
                path = f"{parent.rstrip('/')}/f{counter}"
                counter += 1
                size = rng.choice([300, 1024, 5000, 9000, 20000])
                yield from machine.fs.write_file(path, b"d" * size)
                live_files.append(path)
            elif action < 0.70:
                path = live_files.pop(rng.randrange(len(live_files)))
                yield from machine.fs.unlink(path)
            elif action < 0.85 and len(live_dirs) < 5:
                path = f"/dir{counter}"
                counter += 1
                yield from machine.fs.mkdir(path)
                live_dirs.append(path)
            else:
                old = live_files.pop(rng.randrange(len(live_files)))
                new = f"/renamed{counter}"
                counter += 1
                yield from machine.fs.rename(old, new)
                live_files.append(new)

    return body()


class TestSafeSchemesSurviveCrashes:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000), crash_at=st.floats(0.05, 3.0))
    @pytest.mark.parametrize("scheme", ["conventional", "flag", "chains",
                                        "softupdates"])
    def test_random_crash_leaves_no_integrity_errors(self, scheme, seed,
                                                     crash_at):
        machine = make_machine(scheme)
        image = run_and_crash(machine, churn_workload(machine, seed),
                              crash_at=crash_at)
        report = fsck(image, SMALL_GEOMETRY)
        assert report.clean, (scheme, seed, crash_at, report.errors[:5])

    @pytest.mark.parametrize("scheme", ["conventional", "flag", "chains",
                                        "softupdates"])
    def test_crash_storm_fixed_seeds(self, scheme):
        """A denser deterministic sweep of crash instants."""
        for seed in (1, 2, 3):
            for crash_at in (0.01, 0.1, 0.35, 0.8, 1.5, 2.5, 5.0):
                machine = make_machine(scheme)
                image = run_and_crash(
                    machine, churn_workload(machine, seed, operations=30),
                    crash_at=crash_at)
                report = fsck(image, SMALL_GEOMETRY)
                assert report.clean, (scheme, seed, crash_at,
                                      report.errors[:5])


class TestNoOrderIsUnsafe:
    def test_entry_to_uninitialized_inode_after_crash(self):
        """Directory block flushed before the inode block: rule 3 violated."""
        machine = make_machine("noorder")

        def create_one():
            yield from machine.fs.write_file("/danger", b"x" * 1024)

        run_user(machine, create_one())
        # flush ONLY the root directory block, then crash
        root_daddr = machine.fs.geometry.cg_data_start(0)
        dbuf = machine.cache.peek(root_daddr)
        assert dbuf is not None and dbuf.dirty
        machine.cache.start_flush(dbuf)
        run_user(machine, machine.driver.drain(), name="drain")
        report = fsck(crash_image(machine), SMALL_GEOMETRY)
        assert any("unallocated inode" in e for e in report.errors), \
            report.errors

    def test_random_crashes_eventually_violate(self):
        """Across seeds and crash instants, No Order breaks integrity."""
        violations = 0
        for seed in range(3):
            for crash_at in (2.2, 4.0, 5.5, 7.0):
                machine = make_machine("noorder")
                image = run_and_crash(
                    machine, churn_workload(machine, seed, operations=40),
                    crash_at=crash_at)
                report = fsck(image, SMALL_GEOMETRY)
                violations += 0 if report.clean else 1
        assert violations > 0


class TestSafeSchemesWithPartialWrites:
    @pytest.mark.parametrize("scheme", ["conventional", "softupdates"])
    def test_crash_mid_transfer_is_still_consistent(self, scheme):
        """Crash instants chosen to land inside write transfers."""
        # crash time drawn finely to catch in-flight transfers
        for crash_at in [0.2 + 0.013 * k for k in range(12)]:
            m = make_machine(scheme)
            image = run_and_crash(m, churn_workload(m, 7, operations=25),
                                  crash_at=crash_at)
            report = fsck(image, SMALL_GEOMETRY)
            assert report.clean, (scheme, crash_at, report.errors[:5])


class TestAllocationInitialization:
    def test_soft_updates_never_leaks_stale_data(self):
        machine = make_machine("softupdates")  # alloc_init defaults on
        planted = plant_secrets(machine.disk.storage, SMALL_GEOMETRY)
        assert planted > 0
        machine.drop_caches()
        for crash_at in (0.1, 0.5, 1.2, 2.0):
            m = make_machine("softupdates")
            plant_secrets(m.disk.storage, SMALL_GEOMETRY)
            m.drop_caches()
            image = run_and_crash(
                m, churn_workload(m, 11, operations=30), crash_at=crash_at)
            assert find_secret_leaks(image, SMALL_GEOMETRY) == []

    def test_conventional_with_init_never_leaks(self):
        for crash_at in (0.2, 0.9, 1.8):
            m = make_machine("conventional", alloc_init=True)
            plant_secrets(m.disk.storage, SMALL_GEOMETRY)
            m.drop_caches()
            image = run_and_crash(
                m, churn_workload(m, 13, operations=25), crash_at=crash_at)
            assert find_secret_leaks(image, SMALL_GEOMETRY) == []

    def test_no_init_can_leak_stale_data(self):
        """Without allocation initialization, a crafted crash exposes the
        previous owner's bytes (the security hole of section 1)."""
        machine = make_machine("conventional", alloc_init=False)
        plant_secrets(machine.disk.storage, SMALL_GEOMETRY)
        machine.drop_caches()

        def create_one():
            yield from machine.fs.write_file("/leaky", b"y" * 8192)

        run_user(machine, create_one())
        # push only the metadata out: flush the inode block, not the data
        geo = machine.fs.geometry
        report0 = fsck(crash_image(machine), SMALL_GEOMETRY)
        ino = max(report0.inodes)  # the new file's inode (in memory already
        # written through the conventional sync create path)
        ibuf = machine.cache.peek(geo.inode_block_daddr(ino))
        if ibuf is not None and ibuf.dirty:
            machine.cache.start_flush(ibuf)
            run_user(machine, machine.driver.drain(), name="drain")
        leaks = find_secret_leaks(crash_image(machine), SMALL_GEOMETRY)
        assert leaks, "expected the stale-data hole without alloc init"
