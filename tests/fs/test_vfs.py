"""File system integration tests, run against every ordering scheme."""

import pytest

from repro.fs import FsError
from repro.fs.layout import FileType
from repro.integrity.fsck import fsck
from repro.machine import Machine, MachineConfig
from repro.ordering.registry import REGISTRY
from repro.sim import ProcessCrashed
from tests.conftest import SMALL_GEOMETRY, make_machine, run_user


class TestBasicOps:
    def test_write_read_roundtrip(self, any_scheme_machine):
        m = any_scheme_machine
        payload = bytes(range(256)) * 40  # 10240 bytes: one block + a frag

        def user():
            yield from m.fs.write_file("/data.bin", payload)
            data = yield from m.fs.read_file("/data.bin")
            return data

        assert run_user(m, user()) == payload

    def test_survives_sync_and_cold_cache(self, any_scheme_machine):
        m = any_scheme_machine
        payload = b"persistence check" * 100

        def writer():
            yield from m.fs.write_file("/p.txt", payload)
            yield from m.fs.sync()

        run_user(m, writer())
        m.drop_caches()

        def reader():
            data = yield from m.fs.read_file("/p.txt")
            return data

        assert run_user(m, reader()) == payload

    def test_mkdir_and_nested_paths(self, any_scheme_machine):
        m = any_scheme_machine

        def user():
            yield from m.fs.mkdir("/a")
            yield from m.fs.mkdir("/a/b")
            yield from m.fs.write_file("/a/b/leaf", b"deep")
            data = yield from m.fs.read_file("/a/b/leaf")
            st = yield from m.fs.stat("/a/b")
            return data, st.ftype

        data, ftype = run_user(m, user())
        assert data == b"deep"
        assert ftype is FileType.DIRECTORY

    def test_unlink_removes_and_frees(self, any_scheme_machine):
        m = any_scheme_machine

        def user():
            yield from m.fs.write_file("/victim", b"x" * 5000)
            yield from m.fs.unlink("/victim")
            yield from m.fs.sync()
            with pytest.raises(FsError, match="ENOENT"):
                yield from m.fs.stat("/victim")
            names = yield from m.fs.readdir("/")
            return names

        assert run_user(m, user()) == []
        # all data fragments are back in the pool after the dust settles
        total_free = sum(m.fs.allocator.cg_free_frags)
        expected = (m.fs.geometry.dfrags_per_cg * m.fs.geometry.ncg
                    - m.fs.geometry.frags_per_block)  # root dir block
        assert total_free == expected

    def test_rmdir(self, any_scheme_machine):
        m = any_scheme_machine

        def user():
            yield from m.fs.mkdir("/d")
            with pytest.raises(FsError, match="ENOENT"):
                yield from m.fs.rmdir("/nope")
            yield from m.fs.write_file("/d/f", b"1")
            with pytest.raises(FsError, match="ENOTEMPTY"):
                yield from m.fs.rmdir("/d")
            yield from m.fs.unlink("/d/f")
            yield from m.fs.rmdir("/d")
            yield from m.fs.sync()
            names = yield from m.fs.readdir("/")
            root = yield from m.fs.stat("/")
            return names, root.nlink

        names, root_nlink = run_user(m, user())
        assert names == []
        assert root_nlink == 2

    def test_rename(self, any_scheme_machine):
        m = any_scheme_machine

        def user():
            yield from m.fs.write_file("/old", b"contents")
            yield from m.fs.rename("/old", "/new")
            data = yield from m.fs.read_file("/new")
            with pytest.raises(FsError, match="ENOENT"):
                yield from m.fs.stat("/old")
            return data

        assert run_user(m, user()) == b"contents"

    def test_rename_replaces_target(self, any_scheme_machine):
        m = any_scheme_machine

        def user():
            yield from m.fs.write_file("/a", b"AAA")
            yield from m.fs.write_file("/b", b"BBB")
            yield from m.fs.rename("/a", "/b")
            data = yield from m.fs.read_file("/b")
            yield from m.fs.sync()
            return data

        assert run_user(m, user()) == b"AAA"

    def test_hard_link_shares_inode(self, any_scheme_machine):
        m = any_scheme_machine

        def user():
            yield from m.fs.write_file("/one", b"shared")
            yield from m.fs.link("/one", "/two")
            st = yield from m.fs.stat("/two")
            yield from m.fs.unlink("/one")
            yield from m.fs.sync()
            data = yield from m.fs.read_file("/two")
            st2 = yield from m.fs.stat("/two")
            return st.nlink, data, st2.nlink

        nlink, data, nlink_after = run_user(m, user())
        assert nlink == 2
        assert data == b"shared"
        assert nlink_after == 1


@pytest.mark.parametrize("slug", list(REGISTRY))
def test_rename_onto_itself_keeps_the_file(slug):
    machine = Machine(MachineConfig(scheme=REGISTRY[slug].build(),
                                    fs_geometry=SMALL_GEOMETRY))
    machine.format()
    fs = machine.fs

    def user():
        yield from fs.write_file("/x", b"kept" * 300)
        yield from fs.rename("/x", "/x")
        yield from fs.rename("/x", "//x/")    # the same name, spelled apart
        with pytest.raises(FsError, match="ENOENT"):
            yield from fs.rename("/absent", "/absent")
        yield from fs.sync()
        names = yield from fs.readdir("/")
        data = yield from fs.read_file("/x")
        return names, data

    assert run_user(machine, user()) == (["x"], b"kept" * 300)
    machine.sync_and_settle()
    report = fsck(machine.disk.storage, SMALL_GEOMETRY)
    assert (report.errors, report.warnings) == ([], [])


class TestErrors:
    def test_enoent(self, any_scheme_machine):
        m = any_scheme_machine

        def user():
            with pytest.raises(FsError, match="ENOENT"):
                yield from m.fs.open("/missing")
            return True

        assert run_user(m, user())

    def test_eexist_on_create(self, any_scheme_machine):
        m = any_scheme_machine

        def user():
            yield from m.fs.write_file("/f", b"1")
            with pytest.raises(FsError, match="EEXIST"):
                yield from m.fs.create("/f")
            return True

        assert run_user(m, user())

    def test_enotdir(self, any_scheme_machine):
        m = any_scheme_machine

        def user():
            yield from m.fs.write_file("/plain", b"1")
            with pytest.raises(FsError, match="ENOTDIR"):
                yield from m.fs.stat("/plain/child")
            return True

        assert run_user(m, user())

    def test_relative_path_rejected(self, any_scheme_machine):
        m = any_scheme_machine

        def user():
            with pytest.raises(FsError, match="EINVAL"):
                yield from m.fs.stat("not/absolute")
            return True

        assert run_user(m, user())


class TestLargeFiles:
    def test_file_through_single_indirect(self):
        m = make_machine("softupdates")
        size = (m.fs.geometry.NDADDR + 5) * m.fs.geometry.block_size
        payload = bytes([i % 251 for i in range(size)])

        def user():
            yield from m.fs.write_file("/big", payload)
            yield from m.fs.sync()
            data = yield from m.fs.read_file("/big")
            return data

        assert run_user(m, user()) == payload
        # survives a cold-cache reread
        m.drop_caches()

        def reader():
            data = yield from m.fs.read_file("/big")
            return data

        assert run_user(m, reader()) == payload

    def test_large_file_frees_indirect_blocks_on_unlink(self):
        m = make_machine("conventional")
        size = (m.fs.geometry.NDADDR + 3) * m.fs.geometry.block_size
        before = sum(m.fs.allocator.cg_free_frags)

        def user():
            yield from m.fs.write_file("/big", b"\xaa" * size)
            yield from m.fs.unlink("/big")
            yield from m.fs.sync()

        run_user(m, user())
        assert sum(m.fs.allocator.cg_free_frags) == before


class TestFragments:
    @pytest.mark.parametrize("scheme", ["noorder", "conventional", "flag",
                                        "chains", "softupdates"])
    def test_small_file_uses_fragments(self, scheme):
        m = make_machine(scheme)

        def user():
            yield from m.fs.write_file("/tiny", b"z" * 1500)  # 2 frags
            st = yield from m.fs.stat("/tiny")
            return st.frags_held

        assert run_user(m, user()) == 2

    @pytest.mark.parametrize("scheme", ["noorder", "conventional", "flag",
                                        "chains", "softupdates"])
    def test_append_extends_fragment_run(self, scheme):
        """Repeated small appends force fragment extension (maybe by move)."""
        m = make_machine(scheme)

        def user():
            handle = yield from m.fs.create("/grow")
            for i in range(6):
                yield from m.fs.write(handle, bytes([i]) * 900)
            yield from m.fs.close(handle)
            yield from m.fs.sync()
            data = yield from m.fs.read_file("/grow")
            return data

        data = run_user(m, user())
        assert data == b"".join(bytes([i]) * 900 for i in range(6))

    @pytest.mark.parametrize("scheme", ["conventional", "softupdates",
                                        "chains"])
    def test_fragment_move_when_neighbour_occupied(self, scheme):
        """Interleaved writers collide in a block, forcing moves."""
        m = make_machine(scheme)

        def user():
            h1 = yield from m.fs.create("/a")
            h2 = yield from m.fs.create("/b")
            for i in range(5):
                yield from m.fs.write(h1, b"A" * 1024)
                yield from m.fs.write(h2, b"B" * 1024)
            yield from m.fs.close(h1)
            yield from m.fs.close(h2)
            yield from m.fs.sync()
            a = yield from m.fs.read_file("/a")
            b = yield from m.fs.read_file("/b")
            return a, b

        a, b = run_user(m, user())
        assert a == b"A" * 5120
        assert b == b"B" * 5120


class TestDirectoryGrowth:
    def test_directory_grows_past_one_block(self):
        from repro.fs.layout import FSGeometry
        roomy = FSGeometry(ipg=1024, dfrags_per_cg=4096, ncg=1)
        m = make_machine("softupdates", geometry=roomy,
                         cache_bytes=4 * 1024 * 1024)
        count = 600  # > one 8K block of entries

        def user():
            yield from m.fs.mkdir("/many")
            for i in range(count):
                yield from m.fs.write_file(f"/many/file{i:04d}", b".")
            names = yield from m.fs.readdir("/many")
            yield from m.fs.sync()
            return names

        names = run_user(m, user(), max_events=20_000_000)
        assert len(names) == count
        st = run_user(m, m.fs.stat("/many"))
        assert st.size > m.fs.geometry.block_size


class TestConcurrency:
    def test_parallel_users_in_separate_dirs(self, safe_scheme_machine):
        m = safe_scheme_machine

        def setup():
            for user_id in range(3):
                yield from m.fs.mkdir(f"/u{user_id}")

        run_user(m, setup())

        def worker(user_id):
            for i in range(10):
                yield from m.fs.write_file(f"/u{user_id}/f{i}",
                                           bytes([user_id]) * 2000)
            total = 0
            for i in range(10):
                data = yield from m.fs.read_file(f"/u{user_id}/f{i}")
                assert data == bytes([user_id]) * 2000
                total += len(data)
            return total

        procs = [m.engine.process(worker(u), name=f"user{u}")
                 for u in range(3)]
        results = [m.engine.run_until(proc, max_events=20_000_000)
                   for proc in procs]
        assert results == [20000, 20000, 20000]

    def test_parallel_users_same_directory(self, safe_scheme_machine):
        m = safe_scheme_machine

        def worker(user_id):
            for i in range(5):
                yield from m.fs.write_file(f"/w{user_id}_{i}", b"x" * 1024)
            return True

        procs = [m.engine.process(worker(u)) for u in range(4)]
        assert all([m.engine.run_until(proc, max_events=20_000_000)
                    for proc in procs])

        names = run_user(m, m.fs.readdir("/"))
        assert len(names) == 20


class TestOutOfSpace:
    def test_data_exhaustion_raises(self):
        from repro.fs.layout import FSGeometry
        tiny = FSGeometry(ipg=64, dfrags_per_cg=64, ncg=1)
        m = make_machine("noorder", geometry=tiny)

        def user():
            for i in range(100):
                yield from m.fs.write_file(f"/f{i}", b"x" * 8192)

        with pytest.raises(ProcessCrashed, match="OutOfSpace|full"):
            run_user(m, user())
