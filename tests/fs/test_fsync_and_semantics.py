"""fsync (SYNCIO) guarantees and section 6.1 semantics, per scheme."""

import pytest

from repro.integrity import fsck
from tests.conftest import SMALL_GEOMETRY, make_machine, run_user
from tests.integrity.replay_oracle import crash_image


class TestFsyncDurability:
    @pytest.mark.parametrize("scheme", ["noorder", "conventional", "flag",
                                        "chains", "softupdates"])
    def test_fsynced_file_survives_crash(self, scheme):
        """All schemes support the SYNCIO interface (section 6.1)."""
        m = make_machine(scheme)
        payload = b"must-survive" * 300

        def user():
            handle = yield from m.fs.create("/durable")
            yield from m.fs.write(handle, payload)
            yield from m.fs.fsync(handle)
            yield from m.fs.close(handle)

        run_user(m, user())
        # crash immediately: no further flushing happens
        image = crash_image(m)
        report = fsck(image, SMALL_GEOMETRY)
        # the file exists on disk with its full size
        durable = [din for din in report.inodes.values()
                   if din.size == len(payload)]
        assert durable, "fsynced file missing from the crash image"
        # and its data is the real bytes
        din = durable[0]
        spf = 2
        data = image.read(din.direct[0] * spf,
                          ((din.size + 1023) // 1024) * spf)[:din.size]
        assert data == payload

    def test_fsync_resolves_soft_updates_chain(self):
        m = make_machine("softupdates")

        def user():
            handle = yield from m.fs.create("/chained")
            yield from m.fs.write(handle, b"q" * 5000)
            yield from m.fs.fsync(handle)
            ino = handle.ip.ino
            yield from m.fs.close(handle)
            return ino

        ino = run_user(m, user())
        assert not m.scheme.manager.inode_busy(ino)


class TestReturnSemantics:
    """Section 6.1: what is durable when a call returns."""

    def test_conventional_create_inode_is_durable_entry_is_not(self):
        m = make_machine("conventional")

        def user():
            handle = yield from m.fs.create("/f")
            yield from m.fs.close(handle)

        run_user(m, user())
        report = fsck(crash_image(m), SMALL_GEOMETRY)
        # the new inode reached disk (synchronous write)...
        assert len(report.inodes) == 2  # root + the new file
        # ...but the name is not guaranteed yet (last write was delayed):
        # the new inode shows up as an fsck-repairable orphan
        assert any("orphan" in w for w in report.warnings)

    def test_softupdates_freed_space_not_reusable_until_disk_catches_up(self):
        """'freed resources do not become available for re-use until the
        re-initialized inode reaches stable storage'"""
        m = make_machine("softupdates")

        def setup():
            yield from m.fs.write_file("/a", b"a" * 8192)
            yield from m.fs.sync()

        run_user(m, setup())
        free_before = sum(m.fs.allocator.cg_free_frags)

        def remove_then_create():
            yield from m.fs.unlink("/a")
            # immediately allocate: must NOT get the just-freed frags
            yield from m.fs.write_file("/b", b"b" * 8192)
            return sum(m.fs.allocator.cg_free_frags)

        free_during = run_user(m, remove_then_create())
        # /a's 8 frags still held back, /b took 8 fresh ones
        assert free_during == free_before - 8

    def test_flag_scheme_frees_resources_immediately(self):
        """'With the scheduler-enforced ordering schemes, freed resources
        are immediately available for re-use'"""
        m = make_machine("flag")

        def setup():
            yield from m.fs.write_file("/a", b"a" * 8192)
            yield from m.fs.sync()

        run_user(m, setup())
        free_before = sum(m.fs.allocator.cg_free_frags)

        def remove():
            yield from m.fs.unlink("/a")
            return sum(m.fs.allocator.cg_free_frags)

        assert run_user(m, remove()) == free_before + 8


class TestCrossSchemeEquivalence:
    def test_all_schemes_converge_to_identical_structure(self):
        """After sync, the logical file system state is scheme-independent."""
        snapshots = {}
        for scheme in ("noorder", "conventional", "flag", "chains",
                       "softupdates"):
            m = make_machine(scheme)

            def user():
                yield from m.fs.mkdir("/d")
                for index in range(8):
                    yield from m.fs.write_file(f"/d/f{index}",
                                               bytes([index]) * 3000)
                yield from m.fs.unlink("/d/f3")
                yield from m.fs.rename("/d/f5", "/d/renamed")
                yield from m.fs.link("/d/f1", "/d/lnk")
                yield from m.fs.sync()
                listing = yield from m.fs.readdir("/d")
                contents = {}
                for name in listing:
                    contents[name] = (yield from m.fs.read_file(f"/d/{name}"))
                return contents

            snapshots[scheme] = run_user(m, user())
            report = fsck(m.disk.storage, SMALL_GEOMETRY)
            assert report.clean and not report.warnings, scheme
        reference = snapshots["conventional"]
        for scheme, snapshot in snapshots.items():
            assert snapshot == reference, scheme
