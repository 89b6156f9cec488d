"""truncate-to-zero: deallocation ordering exercised the editor's way."""

import pytest

from repro.fs import FsError
from repro.integrity import fsck
from tests.conftest import SMALL_GEOMETRY, make_machine, run_user
from tests.integrity.replay_oracle import run_and_crash


class TestTruncateBasics:
    def test_truncate_then_rewrite(self, any_scheme_machine):
        m = any_scheme_machine

        def user():
            yield from m.fs.write_file("/doc", b"old" * 2000)
            yield from m.fs.truncate("/doc")
            st = yield from m.fs.stat("/doc")
            assert st.size == 0
            handle = yield from m.fs.open("/doc")
            yield from m.fs.write(handle, b"new contents")
            yield from m.fs.close(handle)
            yield from m.fs.sync()
            data = yield from m.fs.read_file("/doc")
            return data

        assert run_user(m, user()) == b"new contents"

    def test_truncate_frees_all_space(self, any_scheme_machine):
        m = any_scheme_machine
        before = sum(m.fs.allocator.cg_free_frags)

        def user():
            yield from m.fs.write_file("/big", b"z" * 30000)
            yield from m.fs.truncate("/big")
            yield from m.fs.sync()

        run_user(m, user())
        assert sum(m.fs.allocator.cg_free_frags) == before

    def test_truncate_directory_rejected(self, any_scheme_machine):
        m = any_scheme_machine

        def user():
            yield from m.fs.mkdir("/d")
            with pytest.raises(FsError, match="EISDIR"):
                yield from m.fs.truncate("/d")
            return True

        assert run_user(m, user())

    def test_truncate_missing_rejected(self, any_scheme_machine):
        m = any_scheme_machine

        def user():
            with pytest.raises(FsError, match="ENOENT"):
                yield from m.fs.truncate("/nope")
            return True

        assert run_user(m, user())


class TestTruncateOrdering:
    @pytest.mark.parametrize("scheme", ["conventional", "flag", "chains",
                                        "softupdates"])
    def test_truncate_rewrite_crash_is_consistent(self, scheme):
        """Crash at any point around truncate+rewrite: no shared blocks."""
        for crash_at in (0.05, 0.2, 0.6, 1.2, 2.5):
            m = make_machine(scheme)
            def busy():
                yield from m.fs.write_file("/a", b"a" * 20000)
                yield from m.fs.sync()
                for round_no in range(4):
                    yield from m.fs.truncate("/a")
                    handle = yield from m.fs.open("/a")
                    yield from m.fs.write(handle,
                                          bytes([round_no]) * 20000)
                    yield from m.fs.close(handle)
                    # another file competes for the freed space
                    yield from m.fs.write_file(f"/b{round_no}", b"b" * 9000)

            image = run_and_crash(m, busy(), crash_at=crash_at)
            report = fsck(image, SMALL_GEOMETRY)
            assert report.clean, (scheme, crash_at, report.errors[:3])

    def test_softupdates_defers_frees_on_truncate(self):
        m = make_machine("softupdates")

        def setup():
            yield from m.fs.write_file("/t", b"t" * 16384)
            yield from m.fs.sync()

        run_user(m, setup())
        free_before = sum(m.fs.allocator.cg_free_frags)

        def cut():
            yield from m.fs.truncate("/t")
            return sum(m.fs.allocator.cg_free_frags)

        during = run_user(m, cut())
        assert during == free_before  # deferred until the reset is on disk
        run_user(m, m.fs.sync(), name="sync")
        assert sum(m.fs.allocator.cg_free_frags) == free_before + 16

    def test_conventional_truncate_waits_for_reset_write(self):
        m = make_machine("conventional")

        def user():
            yield from m.fs.write_file("/t", b"t" * 8192)
            yield from m.fs.sync()
            before = m.engine.now
            yield from m.fs.truncate("/t")
            return m.engine.now - before

        assert run_user(m, user()) > 0.003  # a synchronous reset write
