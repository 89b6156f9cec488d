"""Unit tests for on-disk layout, Dinode and Superblock codecs."""

import dataclasses
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.fs.layout import Dinode, FileType, FSGeometry, INODE_SIZE
from repro.fs.superblock import Superblock


@pytest.fixture
def geo():
    return FSGeometry()


class TestGeometry:
    def test_derived_sizes(self, geo):
        assert geo.frags_per_block == 8
        assert geo.inodes_per_block == 64
        assert geo.inode_blocks_per_cg == 32

    def test_regions_are_disjoint_and_ordered(self, geo):
        assert geo.superblock_daddr >= geo.frags_per_block
        previous_end = geo.cg_start
        for cg in range(geo.ncg):
            assert geo.cg_base(cg) == previous_end
            assert geo.cg_inode_table(cg) > geo.cg_base(cg)
            assert geo.cg_data_start(cg) > geo.cg_inode_table(cg)
            previous_end = geo.cg_base(cg) + geo.cg_frags
        assert previous_end == geo.total_frags

    def test_inode_addressing(self, geo):
        assert geo.cg_of_inode(0) == 0
        assert geo.cg_of_inode(geo.ipg) == 1
        assert geo.inode_block_daddr(0) == geo.cg_inode_table(0)
        assert (geo.inode_block_daddr(geo.inodes_per_block)
                == geo.cg_inode_table(0) + geo.frags_per_block)
        assert geo.inode_offset_in_block(1) == INODE_SIZE

    def test_daddr_to_cg_roundtrip(self, geo):
        for cg in range(geo.ncg):
            daddr = geo.cg_data_start(cg) + 5
            assert geo.cg_of_daddr(daddr) == cg
            assert geo.data_index(daddr) == 5

    def test_header_daddr_is_not_data(self, geo):
        with pytest.raises(ValueError):
            geo.data_index(geo.cg_base(1))

    def test_cached_sizes_stay_out_of_identity(self, geo):
        """The derived sizes are cached in the instance ``__dict__``; a
        geometry that has computed them must still compare, hash, copy and
        pickle as its six fields."""
        derived = ("frags_per_block", "inodes_per_block",
                   "inode_blocks_per_cg", "cg_frags", "cg_start",
                   "superblock_daddr", "journal_start", "total_frags",
                   "total_inodes", "nindir")
        warm = {name: getattr(geo, name) for name in derived}
        fresh = FSGeometry()
        assert geo == fresh and hash(geo) == hash(fresh)
        assert repr(geo) == repr(fresh)
        assert dataclasses.asdict(geo) == dataclasses.asdict(fresh)
        thawed = pickle.loads(pickle.dumps(geo))
        assert thawed == geo
        assert {name: getattr(thawed, name) for name in derived} == warm
        # replace() must recompute, not inherit, what depends on the field
        bigger = dataclasses.replace(geo, ncg=geo.ncg + 1, journal_frags=64)
        assert bigger.total_inodes == geo.total_inodes + geo.ipg
        assert bigger.journal_start == geo.journal_start + geo.cg_frags
        assert bigger.total_frags == bigger.journal_start + 64
        with pytest.raises(dataclasses.FrozenInstanceError):
            geo.ncg = 3

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            FSGeometry(block_size=8192, frag_size=3000)
        with pytest.raises(ValueError):
            FSGeometry(ncg=0)
        with pytest.raises(ValueError):
            FSGeometry(ipg=100)  # not whole inode blocks


class TestDinode:
    def test_roundtrip(self):
        din = Dinode(mode=int(FileType.REGULAR) | 0o644, nlink=3, uid=7,
                     gid=8, size=123456, atime=1, mtime=2, ctime=3,
                     direct=[10 * i for i in range(12)], sindirect=999,
                     dindirect=1000, frags_held=42, generation=5, flags=1)
        packed = din.pack()
        assert len(packed) == INODE_SIZE
        assert Dinode.unpack(packed) == din

    def test_zero_inode_is_unallocated(self):
        assert not Dinode.unpack(bytes(INODE_SIZE)).allocated

    def test_ftype(self):
        assert Dinode(mode=int(FileType.DIRECTORY) | 0o700).ftype \
            is FileType.DIRECTORY

    def test_copy_is_independent(self):
        din = Dinode(mode=int(FileType.REGULAR), size=10)
        clone = din.copy()
        clone.size = 20
        assert din.size == 10

    @given(size=st.integers(0, 2**40), nlink=st.integers(0, 65535))
    def test_roundtrip_property(self, size, nlink):
        din = Dinode(mode=int(FileType.REGULAR), nlink=nlink, size=size)
        assert Dinode.unpack(din.pack()) == din


class TestSuperblock:
    def test_roundtrip(self, geo):
        sb = Superblock(geometry=geo, generation=7, clean=False)
        raw = sb.pack(geo.frag_size)
        assert len(raw) == geo.frag_size
        back = Superblock.unpack(raw)
        assert back.geometry == geo
        assert back.generation == 7
        assert back.clean is False

    def test_bad_magic_rejected(self, geo):
        with pytest.raises(ValueError, match="magic"):
            Superblock.unpack(bytes(geo.frag_size))
