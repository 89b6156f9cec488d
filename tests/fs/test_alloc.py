"""Unit + property tests for the cylinder-group bitmaps and allocator."""

import pytest
from hypothesis import given, strategies as st

from repro.fs.alloc import CG_MAGIC, CgView
from repro.fs.layout import FSGeometry
from tests.conftest import SMALL_GEOMETRY, make_machine, run_user

GEO = SMALL_GEOMETRY


def fresh_view():
    data = bytearray(GEO.block_size)
    view = CgView.initialize(data, 0, GEO)
    view.free_inodes = GEO.ipg
    view.free_frags = GEO.dfrags_per_cg
    return view


class TestCgView:
    def test_initialize_sets_magic_and_counts(self):
        view = fresh_view()
        assert view.magic == CG_MAGIC
        assert view.free_inodes == GEO.ipg
        assert view.free_frags == GEO.dfrags_per_cg

    def test_set_frags_updates_count_and_bits(self):
        view = fresh_view()
        view.set_frags(10, 3, True)
        assert view.frag_bits() >> 10 & 0b1111 == 0b0111
        assert view.free_frags == GEO.dfrags_per_cg - 3
        view.set_frags(10, 3, False)
        assert view.free_frags == GEO.dfrags_per_cg

    def test_double_set_rejected(self):
        view = fresh_view()
        view.set_frags(0, 1, True)
        with pytest.raises(RuntimeError, match="already"):
            view.set_frags(0, 1, True)
        view.set_inode(5, True)
        with pytest.raises(RuntimeError, match="already"):
            view.set_inode(5, True)

    def test_find_block_skips_partial_blocks(self):
        view = fresh_view()
        view.set_frags(2, 1, True)  # block 0 partially used
        assert view.find_block() == 8  # next block boundary

    def test_find_block_wraps_from_rotor(self):
        view = fresh_view()
        last_block = GEO.dfrags_per_cg - 8
        found = view.find_block(rotor=last_block + 4)
        assert found is not None

    def test_find_frag_run_prefers_partial_blocks(self):
        view = fresh_view()
        view.set_frags(0, 3, True)  # block 0: 5 frags free
        run = view.find_frag_run(2)
        assert 3 <= run <= 6  # inside the partial block, not a fresh one

    def test_find_frag_run_falls_back_to_free_block(self):
        view = fresh_view()
        assert view.find_frag_run(5) == 0  # carve the first free block

    def test_find_frag_run_none_when_full(self):
        view = fresh_view()
        view.set_frags(0, GEO.dfrags_per_cg, True)
        assert view.find_frag_run(1) is None
        assert view.find_block() is None

    @given(st.lists(st.tuples(st.integers(0, GEO.dfrags_per_cg // 8 - 1),
                              st.integers(1, 8)), max_size=25),
           st.integers(1, 8))
    def test_found_runs_are_really_free_property(self, occupied, want):
        """Whatever is pre-allocated, a found run is free, in-bounds, and
        does not cross a block boundary."""
        view = fresh_view()
        for block, count in occupied:
            base = block * 8
            for frag in range(base, base + count):
                if not view.frag_bits() >> frag & 1:
                    view.set_frags(frag, 1, True)
        run = view.find_frag_run(want, rotor=0)
        if run is not None:
            assert view.run_free(run, want)
            assert run // 8 == (run + want - 1) // 8  # single block


class TestAllocatorPolicies:
    def test_directories_spread_across_groups(self):
        m = make_machine("noorder")

        def user():
            for index in range(4):
                yield from m.fs.mkdir(f"/d{index}")
            inos = []
            for index in range(4):
                st_ = yield from m.fs.stat(f"/d{index}")
                _ = st_
            return [ip.ino for ip in m.fs.itable.values() if ip.is_dir]

        dir_inos = run_user(m, user())
        groups = {m.fs.geometry.cg_of_inode(ino) for ino in dir_inos}
        assert len(groups) == 2  # both cylinder groups used

    def test_files_follow_their_directory(self):
        m = make_machine("noorder")

        def user():
            yield from m.fs.mkdir("/d0")
            yield from m.fs.write_file("/d0/child", b"x")
            dir_st = yield from m.fs.stat("/d0")
            file_st = yield from m.fs.read_file("/d0/child")
            return dir_st

        run_user(m, user())
        geo = m.fs.geometry
        inos = {ip.ino: ip for ip in m.fs.itable.values()}
        dirs = [i for i, ip in inos.items() if ip.is_dir and i != 2]
        files = [i for i, ip in inos.items() if not ip.is_dir]
        assert geo.cg_of_inode(dirs[0]) == geo.cg_of_inode(files[0])

    def test_summaries_match_headers_after_churn(self):
        m = make_machine("softupdates")

        def user():
            for index in range(15):
                yield from m.fs.write_file(f"/f{index}", b"y" * 3000)
            for index in range(0, 15, 2):
                yield from m.fs.unlink(f"/f{index}")
            yield from m.fs.sync()

        run_user(m, user())
        # reload from disk and compare with the in-memory summaries
        from repro.fs.alloc import Allocator
        checker = Allocator(m.fs.geometry, m.cache)

        def verify():
            yield from checker.load_summaries()
            return checker.cg_free_frags, checker.cg_free_inodes

        frags, inodes = run_user(m, verify())
        assert frags == m.fs.allocator.cg_free_frags
        assert inodes == m.fs.allocator.cg_free_inodes
