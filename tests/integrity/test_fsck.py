"""fsck unit tests: clean images pass; synthetic damage is detected."""

import struct
import time
import tracemalloc

import pytest

from repro.fs.layout import ROOT_INO, Dinode, FileType, FSGeometry
from repro.integrity import (
    Severity,
    classify_report,
    find_secret_leaks,
    fsck,
    repair,
)
from repro.integrity.fsck import Auditor
from tests.conftest import SMALL_GEOMETRY, iter_entries, make_machine, run_user


def build_populated_machine(scheme="noorder"):
    m = make_machine(scheme)

    def setup():
        yield from m.fs.mkdir("/docs")
        yield from m.fs.write_file("/docs/a.txt", b"alpha" * 100)
        yield from m.fs.write_file("/docs/b.txt", b"beta" * 3000)
        yield from m.fs.write_file("/top", b"top")
        yield from m.fs.link("/top", "/docs/top-link")
        yield from m.fs.sync()

    run_user(m, setup())
    return m


def frag_bytes(m, daddr, frags=8):
    spf = m.fs.geometry.frag_size // 512
    return m.disk.storage.read(daddr * spf, frags * spf)


def poke(m, daddr, offset, data):
    spf = m.fs.geometry.frag_size // 512
    base = daddr * spf
    sector, within = divmod(offset, 512)
    raw = bytearray(m.disk.storage.read(base + sector, 1))
    raw[within:within + len(data)] = data
    m.disk.storage.write(base + sector, bytes(raw))


def set_size(m, ino, size):
    geo = m.fs.geometry
    poke(m, geo.inode_block_daddr(ino), geo.inode_offset_in_block(ino) + 8,
         struct.pack("<Q", size))  # Dinode.size: after four 16-bit fields


def holes(report):
    return [e for e in report.errors if "has a hole" in e]


class TestClaimedSize:
    """A dinode's size is read from the image: a checker must cost what
    the image's pointers hold, not what a torn size claims."""

    def docs(self, m):
        report = fsck(m.disk.storage, SMALL_GEOMETRY)
        return next(ino for ino, din in report.inodes.items()
                    if din.ftype is FileType.DIRECTORY and ino != ROOT_INO)

    @pytest.mark.parametrize("blocks,hole", [
        (2, "block 1"), (3, "blocks 1-2"), (14, "blocks 1-13")])
    def test_a_run_of_holes_is_one_finding(self, blocks, hole):
        m = build_populated_machine()
        ino = self.docs(m)
        set_size(m, ino, blocks * m.fs.geometry.block_size)
        assert holes(fsck(m.disk.storage, SMALL_GEOMETRY)) == [
            f"directory {ino} has a hole at {hole}"]

    def test_a_two_to_the_forty_size_audits_in_what_the_image_holds(self):
        m = build_populated_machine()
        ino = self.docs(m)
        report = fsck(m.disk.storage, SMALL_GEOMETRY)
        regular = next(i for i, din in report.inodes.items()
                       if din.ftype is FileType.REGULAR)
        set_size(m, ino, 1 << 40)
        set_size(m, regular, 1 << 40)
        store = m.disk.storage
        tracemalloc.start()
        start = time.perf_counter()
        try:
            auditor = Auditor(SMALL_GEOMETRY)
            audited = auditor.audit(store)
            report = fsck(store, SMALL_GEOMETRY)
            leaks = find_secret_leaks(store, SMALL_GEOMETRY, report)
            elapsed = time.perf_counter() - start
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 2^40 bytes claim the 12 + 2048 + 2048^2 blocks the pointers can
        # address; every one past block 0 is a hole
        assert holes(report) == holes(audited) == [
            f"directory {ino} has a hole at blocks 1-4196363"]
        assert leaks == []
        assert elapsed < 1.0, elapsed
        assert peak < 10 << 20, peak


class TestOneShot:
    def test_a_one_shot_audit_keeps_nothing_for_a_next_one(self):
        """``fsck`` is one audit: it holds one cylinder group's inode table
        at a time and no read log (3.4 MB when it kept an Auditor's reuse
        state: every table and every range read)."""
        m = make_machine("noorder", geometry=FSGeometry())
        store = m.disk.storage
        tracemalloc.start()
        try:
            report = fsck(store)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.clean and len(report.inodes) == 1
        assert report == Auditor().audit(store)
        assert peak <= 1 << 20, peak


class TestCleanImages:
    def test_fresh_fs_is_clean(self):
        m = make_machine("noorder")
        report = fsck(m.disk.storage, SMALL_GEOMETRY)
        assert report.clean, report.errors
        assert not report.warnings, report.warnings

    def test_synced_populated_fs_is_clean(self):
        m = build_populated_machine()
        report = fsck(m.disk.storage, SMALL_GEOMETRY)
        assert report.clean, report.errors
        assert not report.warnings, report.warnings
        names = {name for refs in report.references.values()
                 for _d, name in refs}
        assert {"a.txt", "b.txt", "docs", "top", "top-link"} <= names

    def test_all_schemes_produce_identical_clean_state(self):
        """After a full sync, every scheme must land the same structure."""
        for scheme in ("conventional", "flag", "chains", "softupdates"):
            m = build_populated_machine(scheme)
            report = fsck(m.disk.storage, SMALL_GEOMETRY)
            assert report.clean, (scheme, report.errors)
            assert not report.warnings, (scheme, report.warnings)
            assert len(report.inodes) == 5  # root, docs, a.txt, b.txt, top
            top_ino = [ino for ino, refs in report.references.items()
                       if ("top" in {n for _d, n in refs})]
            assert report.inodes[top_ino[0]].nlink == 2

    def test_garbage_superblock_reported(self):
        m = make_machine("noorder")
        m.disk.storage.write(SMALL_GEOMETRY.superblock_daddr * 2,
                             b"\x00" * 512)
        report = fsck(m.disk.storage, SMALL_GEOMETRY)
        assert not report.clean
        assert "superblock" in report.errors[0]


class TestDamageDetection:
    def test_entry_to_unallocated_inode(self):
        m = build_populated_machine()
        geo = m.fs.geometry
        root_daddr = geo.cg_data_start(0)
        # find 'top' entry offset in the root block and point it at a free ino
        raw = frag_bytes(m, root_daddr)
        entry = next(e for e in iter_entries(raw)
                     if e.name == "top")
        poke(m, root_daddr, entry.offset, struct.pack("<I", 99))
        report = fsck(m.disk.storage, SMALL_GEOMETRY)
        assert any("unallocated inode 99" in e for e in report.errors)

    def test_duplicate_block_claim(self):
        m = build_populated_machine()
        geo = m.fs.geometry
        report0 = fsck(m.disk.storage, SMALL_GEOMETRY)
        # pick two regular files and make one point at the other's block
        files = [ino for ino, d in report0.inodes.items()
                 if d.ftype is FileType.REGULAR and d.direct[0]]
        a, b = files[0], files[1]
        victim = report0.inodes[b].direct[0]
        iblk = geo.inode_block_daddr(a)
        at = geo.inode_offset_in_block(a) + 28  # direct[0] offset
        poke(m, iblk, at, struct.pack("<I", victim))
        report = fsck(m.disk.storage, SMALL_GEOMETRY)
        assert any("claimed by both" in e for e in report.errors)

    def test_pointer_outside_data_area(self):
        m = build_populated_machine()
        geo = m.fs.geometry
        report0 = fsck(m.disk.storage, SMALL_GEOMETRY)
        ino = next(i for i, d in report0.inodes.items()
                   if d.ftype is FileType.REGULAR)
        iblk = geo.inode_block_daddr(ino)
        at = geo.inode_offset_in_block(ino) + 28
        poke(m, iblk, at, struct.pack("<I", 1))  # boot area
        report = fsck(m.disk.storage, SMALL_GEOMETRY)
        assert any("outside the data area" in e for e in report.errors)

    def test_corrupt_directory_block(self):
        m = build_populated_machine()
        geo = m.fs.geometry
        root_daddr = geo.cg_data_start(0)
        poke(m, root_daddr, 4, struct.pack("<H", 3))  # bad reclen
        report = fsck(m.disk.storage, SMALL_GEOMETRY)
        assert any("corrupt" in e for e in report.errors)

    @pytest.mark.parametrize("field,value,what", [
        (7, 3, "bad type 3"),         # type byte outside 0 / 4 / 8
        (6, 250, "bad namelen 250"),  # name longer than its record
    ])
    def test_garbage_entry_header_is_a_finding_not_a_crash(self, field, value,
                                                           what):
        m = build_populated_machine()
        root_daddr = m.fs.geometry.cg_data_start(0)
        entry = next(e for e in iter_entries(frag_bytes(m, root_daddr))
                     if e.name == "docs")
        poke(m, root_daddr, entry.offset + field, bytes([value]))
        report = fsck(m.disk.storage, SMALL_GEOMETRY)
        assert any("corrupt" in e and what in e for e in report.errors)

    @pytest.mark.parametrize("victim", [FileType.REGULAR, FileType.DIRECTORY],
                             ids=["file", "dir"])
    @pytest.mark.parametrize("mode", [0x1000, 0x21a4, 0xC000], ids=hex)
    def test_garbage_mode_is_a_finding_not_a_crash(self, mode, victim):
        m, ino = self.machine_with_garbage_mode(mode, victim)
        report = fsck(m.disk.storage, SMALL_GEOMETRY)
        assert [e for e in report.errors if "unparseable" in e] == [
            f"inode {ino} mode {mode:#06x} unparseable"]
        assert ino in report.inodes
        # neither its pointers nor its directory blocks were walked
        assert not any(f"inode {ino} " in e or f"directory {ino}" in e
                       for e in report.errors if "unparseable" not in e)
        assert not any(dir_ino == ino for refs in report.references.values()
                       for dir_ino, _name in refs)
        kinds = {v.severity for v in classify_report(report)
                 if "unparseable" in v.message}
        assert kinds == {Severity.CORRUPTION}

    @pytest.mark.parametrize("victim", [FileType.REGULAR, FileType.DIRECTORY],
                             ids=["file", "dir"])
    def test_garbage_mode_does_not_crash_repair_or_secrets(self, victim):
        m, _ino = self.machine_with_garbage_mode(0x1000, victim)
        find_secret_leaks(m.disk.storage, SMALL_GEOMETRY)
        image = m.disk.storage.snapshot()
        repair(image, fsck(image, SMALL_GEOMETRY), SMALL_GEOMETRY)

    @staticmethod
    def machine_with_garbage_mode(mode, victim):
        m = build_populated_machine()
        geo = m.fs.geometry
        clean = fsck(m.disk.storage, SMALL_GEOMETRY)
        ino = next(i for i, d in clean.inodes.items()
                   if d.ftype is victim and i != ROOT_INO)
        poke(m, geo.inode_block_daddr(ino), geo.inode_offset_in_block(ino),
             struct.pack("<H", mode))
        return m, ino

    def test_undercounted_links_is_repairable_warning(self):
        m = build_populated_machine()
        geo = m.fs.geometry
        report0 = fsck(m.disk.storage, SMALL_GEOMETRY)
        # 'top' has two links; force nlink=1 on disk
        ino = next(i for i, d in report0.inodes.items() if d.nlink == 2
                   and d.ftype is FileType.REGULAR)
        iblk = geo.inode_block_daddr(ino)
        at = geo.inode_offset_in_block(ino) + 2  # nlink offset
        poke(m, iblk, at, struct.pack("<H", 1))
        report = fsck(m.disk.storage, SMALL_GEOMETRY)
        assert report.clean
        assert any("below actual" in w for w in report.warnings)

    def test_overcounted_links_is_only_warning(self):
        m = build_populated_machine()
        geo = m.fs.geometry
        report0 = fsck(m.disk.storage, SMALL_GEOMETRY)
        ino = next(i for i, d in report0.inodes.items()
                   if d.ftype is FileType.REGULAR)
        iblk = geo.inode_block_daddr(ino)
        at = geo.inode_offset_in_block(ino) + 2
        poke(m, iblk, at, struct.pack("<H", 9))
        report = fsck(m.disk.storage, SMALL_GEOMETRY)
        assert report.clean
        assert any("above actual" in w for w in report.warnings)

    def test_bitmap_leak_is_only_warning(self):
        m = build_populated_machine()
        geo = m.fs.geometry
        from repro.fs.alloc import CgView
        spf = geo.frag_size // 512
        raw = bytearray(m.disk.storage.read(geo.cg_base(1) * spf,
                                            geo.frags_per_block * spf))
        CgView(raw, geo).set_frags(100, 2, True)  # mark used, unreferenced
        m.disk.storage.write(geo.cg_base(1) * spf, bytes(raw))
        report = fsck(m.disk.storage, SMALL_GEOMETRY)
        assert report.clean
        assert any("leak" in w for w in report.warnings)
