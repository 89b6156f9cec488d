"""Tests for the NVRAM extension scheme (section 7's comparison point)."""

import pytest

from repro.costs import CostModel
from repro.harness.recording import record_run
from repro.integrity import fsck
from repro.integrity.medialog import ImageSynthesizer
from repro.machine import Machine, MachineConfig
from repro.ordering import NvramScheme
from tests.conftest import SMALL_GEOMETRY, run_user
from tests.integrity.replay_oracle import crash_image, run_and_crash
from tests.integrity.test_crash import churn_workload


def nvram_machine(capacity=4 * 1024 * 1024):
    machine = Machine(MachineConfig(scheme=NvramScheme(capacity),
                                    fs_geometry=SMALL_GEOMETRY,
                                    cache_bytes=2 * 1024 * 1024,
                                    costs=CostModel(scale=0.0)))
    machine.format()
    return machine


class TestBasics:
    def test_roundtrip_and_clean_state(self):
        m = nvram_machine()

        def user():
            yield from m.fs.mkdir("/d")
            yield from m.fs.write_file("/d/f", b"n" * 5000)
            yield from m.fs.unlink("/d/f")
            yield from m.fs.rmdir("/d")
            yield from m.fs.sync()

        run_user(m, user())
        report = fsck(m.disk.storage, SMALL_GEOMETRY)
        assert report.clean and not report.warnings

    def test_mirror_drains_as_disk_destages(self):
        m = nvram_machine()

        def user():
            for index in range(10):
                yield from m.fs.write_file(f"/f{index}", b"x" * 2000)
            yield from m.fs.sync()

        run_user(m, user())
        assert m.scheme.stores > 0
        assert m.scheme.used_bytes == 0  # everything destaged

    def test_no_sync_write_waits(self):
        """Metadata persists without the process waiting on the disk."""
        m = nvram_machine()

        def user():
            yield from m.fs.write_file("/warm", b"w")
            before = m.engine.now
            handle = yield from m.fs.create("/f")
            waited = m.engine.now - before
            yield from m.fs.close(handle)
            return waited

        assert run_user(m, user()) < 0.003


class TestCrashSafety:
    @pytest.mark.parametrize("crash_at", [0.3, 1.0, 2.5, 5.0])
    def test_crash_states_are_consistent(self, crash_at):
        m = nvram_machine()
        image = run_and_crash(
            m, churn_workload(m, seed=5, operations=35), crash_at=crash_at)
        report = fsck(image, SMALL_GEOMETRY)
        assert report.clean, report.errors[:4]

    def test_metadata_created_just_before_crash_survives(self):
        """Unlike every disk-only scheme, NVRAM loses (almost) nothing."""
        m = nvram_machine()

        def user():
            yield from m.fs.write_file("/instant", b"i" * 100)

        run_user(m, user())
        # crash immediately: no flush of any kind has happened
        report = fsck(crash_image(m), SMALL_GEOMETRY)
        names = {name for refs in report.references.values()
                 for _d, name in refs}
        assert "instant" in names


class TestCapacityPressure:
    def test_tiny_nvram_forces_destage_stalls(self):
        m = nvram_machine(capacity=2 * 8192)  # two blocks of NVRAM

        def user():
            # spread metadata across many distinct blocks: several
            # directories (each its own block, placed round-robin across
            # cylinder groups) with files in each
            for dir_index in range(6):
                yield from m.fs.mkdir(f"/d{dir_index}")
                for file_index in range(5):
                    yield from m.fs.write_file(
                        f"/d{dir_index}/f{file_index}", b"y" * 1500)
            yield from m.fs.sync()

        run_user(m, user())
        assert m.scheme.destage_stalls > 0


class TestFreedMetadata:
    def test_a_freed_blocks_mirror_never_overwrites_its_next_owner(self):
        """rmdir frees the directory's block; a file then reuses it and
        syncs.  Recovery must not replay the dead directory's bytes over
        the file's durable data -- fsck cannot tell (the block is a
        well-formed file block either way), so only the bytes show it."""
        m = nvram_machine()
        found = {}

        def first_block(path):
            ip = yield from m.fs.namei(path)
            m.fs.iput(ip)
            return ip.din.direct[0]

        def user():
            yield from m.fs.mkdir("/d")
            found["block"] = yield from first_block("/d")
            yield from m.fs.rmdir("/d")
            yield from m.fs.sync()
            # fill until the allocator's rotor wraps round to the freed block
            for index in range(600):
                yield from m.fs.write_file(f"/f{index}", b"Z" * 8192)
                if (yield from first_block(f"/f{index}")) == found["block"]:
                    break
            else:
                pytest.fail("the freed directory block was never reused")
            yield from m.fs.sync()

        recorded = record_run(m, user())
        spf = m.cache.sectors_per_frag
        lbn = found["block"] * spf
        assert m.disk.storage.read(lbn, spf) == b"Z" * 1024
        assert crash_image(m).read(lbn, spf) == b"Z" * 1024
        synthesized = ImageSynthesizer(recorded.base_image,
                                       recorded.media_log) \
            .image_at(recorded.quiesce_time)
        assert synthesized.read(lbn, spf) == b"Z" * 1024
