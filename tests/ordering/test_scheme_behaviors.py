"""Per-scheme write behaviour: each scheme's signature I/O pattern."""

import pytest

from repro.driver.request import IOKind
from tests.conftest import make_machine, run_user


def write_requests(machine):
    return [r for r in machine.driver.trace if r.is_write]


class TestConventional:
    def test_create_does_synchronous_inode_write(self):
        m = make_machine("conventional")

        def user():
            before = m.engine.now
            yield from m.fs.write_file("/f", b"x")
            return m.engine.now - before

        elapsed = run_user(m, user())
        # the create path waited for at least one mechanical write
        assert elapsed > 0.003
        writes = write_requests(m)
        assert writes, "expected a synchronous metadata write"
        # the inode block write completed before the syscall returned
        assert writes[0].complete_time <= elapsed

    def test_unlink_sync_writes_directory_then_inode(self):
        m = make_machine("conventional")

        def user():
            yield from m.fs.write_file("/f", b"x" * 3000)
            mark = len(m.driver.trace)
            before = m.engine.now
            yield from m.fs.unlink("/f")
            return mark, m.engine.now - before

        mark, elapsed = run_user(m, user())
        # removal waited out two ordered sync writes (dir, then reset inode)
        new_writes = [r for r in m.driver.trace[mark:] if r.is_write]
        assert len(new_writes) >= 2
        assert elapsed > 0.006


class TestSchedulerFlag:
    def test_metadata_writes_carry_the_flag(self):
        m = make_machine("flag")

        def user():
            yield from m.fs.write_file("/f", b"x")
            yield from m.fs.sync()

        run_user(m, user())
        flagged = [r for r in m.driver.trace if r.flag]
        assert flagged, "inode write should be flagged"

    def test_create_does_not_block_on_write(self):
        """Same cold-cache reads as conventional, but no sync-write wait."""
        waits = {}
        for scheme in ("flag", "conventional"):
            m = make_machine(scheme)

            def user():
                # warm the metadata once, then time a steady-state create
                yield from m.fs.write_file("/warm", b"w")
                before = m.engine.now
                handle = yield from m.fs.create("/f")
                waited = m.engine.now - before
                yield from m.fs.close(handle)
                yield from m.fs.sync()
                return waited

            waits[scheme] = run_user(m, user())
        assert waits["flag"] < 0.003  # async: no mechanical wait
        assert waits["conventional"] > 0.003  # sync: waited a disk access


class TestSchedulerChains:
    def test_dependency_lists_attached(self):
        m = make_machine("chains")

        def user():
            yield from m.fs.write_file("/f", b"x")
            yield from m.fs.sync()

        run_user(m, user())
        with_deps = [r for r in m.driver.trace if r.depends_on]
        assert with_deps, "the directory flush should depend on the inode write"
        # dependencies point backwards in issue order
        for request in with_deps:
            assert all(dep < request.id for dep in request.depends_on)

    def test_dependent_completes_after_antecedent(self):
        m = make_machine("chains")

        def user():
            yield from m.fs.write_file("/f", b"x")
            yield from m.fs.sync()

        run_user(m, user())
        by_id = {r.id: r for r in m.driver.trace}
        for request in m.driver.trace:
            for dep in request.depends_on:
                assert by_id[dep].complete_time <= request.dispatch_time


class TestNoOrder:
    def test_no_writes_until_flush(self):
        m = make_machine("noorder")

        def user():
            yield from m.fs.write_file("/f", b"x" * 2000)

        run_user(m, user())
        assert not write_requests(m)

    def test_many_creates_aggregate_into_few_writes(self):
        m = make_machine("noorder")

        def user():
            for index in range(30):
                yield from m.fs.write_file(f"/f{index}", b"y" * 256)
            yield from m.fs.sync()

        run_user(m, user())
        # 30 creates -> ~ (1 dir block + 1 inode block + bitmap + 30 frag
        # data writes, concatenated); far fewer metadata writes than creates
        metadata_writes = [r for r in write_requests(m) if r.nsectors > 2]
        assert len(metadata_writes) < 30


class TestSoftUpdates:
    def test_no_writes_until_flush_and_clean_after(self):
        m = make_machine("softupdates")

        def user():
            yield from m.fs.write_file("/f", b"x" * 2000)

        run_user(m, user())
        assert not write_requests(m)
        run_user(m, m.fs.sync(), name="sync")
        assert m.scheme.pending_work() == 0
        assert not m.cache.dirty_buffers()

    def test_create_remove_pair_costs_no_disk_writes(self):
        """The paper's headline: 'the add and remove have been serviced
        with no disk writes!'"""
        m = make_machine("softupdates")

        def user():
            for index in range(20):
                yield from m.fs.write_file(f"/t{index}", b"z" * 1024)
                yield from m.fs.unlink(f"/t{index}")
            yield from m.fs.sync()

        run_user(m, user())
        data_writes = [r for r in write_requests(m)]
        # nothing about the transient files needs to reach the disk; only
        # bookkeeping blocks (root dir / inode block / bitmaps) may flush
        assert len(data_writes) <= 6
        assert m.scheme.manager.cancelled_adds == 20

    def test_rollback_happens_when_dir_flushed_early(self):
        m = make_machine("softupdates")

        def user():
            yield from m.fs.write_file("/early", b"q" * 512)

        run_user(m, user())
        # force ONLY the root directory block out
        root_daddr = m.fs.geometry.cg_data_start(0)
        dbuf = m.cache.peek(root_daddr)
        m.cache.start_flush(dbuf)
        run_user(m, m.driver.drain(), name="drain")
        # the on-disk entry is rolled back (ino 0); memory still has it
        from repro.fs import directory
        on_disk = m.disk.storage.read(root_daddr * 2, 16)
        entry, _ = directory.build_index(on_disk).find("early")
        assert entry is None
        in_memory, _ = directory.build_index(dbuf.data).find("early")
        assert in_memory is not None
        assert m.scheme.manager.rollbacks >= 1
        # the block was re-dirtied so the entry eventually lands
        run_user(m, m.fs.sync(), name="sync")
        on_disk = m.disk.storage.read(root_daddr * 2, 16)
        entry, _ = directory.build_index(on_disk).find("early")
        assert entry is not None

    def test_deferred_free_blocks_bitmap_until_reset_written(self):
        m = make_machine("softupdates")

        def setup():
            yield from m.fs.write_file("/victim", b"v" * 8192)
            yield from m.fs.sync()

        run_user(m, setup())
        free_before = sum(m.fs.allocator.cg_free_frags)

        def remove():
            yield from m.fs.unlink("/victim")

        run_user(m, remove())
        # in-memory bitmap unchanged: the free is deferred
        assert sum(m.fs.allocator.cg_free_frags) == free_before
        run_user(m, m.fs.sync(), name="sync")
        assert sum(m.fs.allocator.cg_free_frags) == free_before + 8

    def test_alloc_init_is_nearly_free(self):
        """Soft updates enforces initialization without extra writes."""
        counts = {}
        for init in (False, True):
            m = make_machine("softupdates", alloc_init=init)

            def user():
                for index in range(10):
                    yield from m.fs.write_file(f"/f{index}", b"d" * 4096)
                yield from m.fs.sync()

            run_user(m, user())
            counts[init] = len(write_requests(m))
        assert counts[True] <= counts[False] * 1.15
