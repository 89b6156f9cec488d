"""One fixture image per fsck finding type, asserting the exact codes.

The clean sweeps never exercise most of fsck's finding paths -- a safe
scheme simply never produces an orphan chain or a drifted bitmap.  Each
test here builds a known-good image, performs one surgical mutation, and
asserts the exact finding fsck must produce: the invariant key the check
names (what the explorer, the monitor and every scheme's declaration
judge by) and the sentence (what a person reads, and what the reports are
compared by, byte for byte).  Every fixture is also repaired back to
pristine where repair claims to handle it, and the census at the end
holds the catalogue to the fixtures: a key no image can produce is a dead
row.
"""

import struct

import pytest

from repro.fs.alloc import CgView
from repro.fs.layout import ROOT_INO
from repro.integrity import INVARIANTS, Severity, fsck, repair
from repro.integrity.invariants import finding, invariant_by_key
from tests.conftest import SMALL_GEOMETRY, iter_entries, make_machine, run_user
from tests.integrity import reference_classify

SPF = SMALL_GEOMETRY.frag_size // 512


def populated():
    m = make_machine("noorder")

    def setup():
        yield from m.fs.write_file("/one", b"1" * 5000)
        yield from m.fs.write_file("/two", b"2" * 5000)
        yield from m.fs.link("/one", "/hard")
        yield from m.fs.sync()

    run_user(m, setup())
    return m


def ino_of(report, name):
    return next(ino for ino, refs in report.references.items()
                if name in {n for _d, n in refs})


def read_block(store, daddr, frags=SMALL_GEOMETRY.frags_per_block):
    return bytearray(store.read(daddr * SPF, frags * SPF))


def write_block(store, daddr, raw):
    store.write(daddr * SPF, bytes(raw))


def patch_inode(m, ino, offset, data):
    geo = m.fs.geometry
    raw = read_block(m.disk.storage, geo.inode_block_daddr(ino))
    at = geo.inode_offset_in_block(ino) + offset
    raw[at:at + len(data)] = data
    write_block(m.disk.storage, geo.inode_block_daddr(ino), raw)


def assert_finding(m, kind, message, key):
    """The fixture produces exactly this finding, under this invariant --
    and whatever else it produces is typed as the reference classifier
    would have read it."""
    report = fsck(m.disk.storage, SMALL_GEOMETRY)
    findings = report.errors if kind == "error" else report.warnings
    assert message in findings, (message, findings)
    assert {found.key for found in report.findings
            if found.message == message} == {key}
    reference_classify.assert_agrees(report.findings)
    return report


def assert_repairs_to_pristine(m):
    image = m.disk.storage.snapshot()
    after = repair(image, fsck(image, SMALL_GEOMETRY), SMALL_GEOMETRY)
    assert after.clean and not after.warnings, (after.errors[:3],
                                                after.warnings[:3])


# ----------------------------------------------------------------------
# the surgical mutations: each damages *m* (whose clean audit is *before*)
# and returns the (kind, message) fsck must now report
# ----------------------------------------------------------------------
def root_entry(m, before, name):
    """The root directory's block and its live entry called *name*."""
    root_blk = before.inodes[ROOT_INO].direct[0]
    raw = read_block(m.disk.storage, root_blk)
    entry = next(e for e in iter_entries(raw)
                 if e.live and e.name == name)
    return root_blk, raw, entry


def orphan(m, before):
    # kill the directory entry (ino := 0) but leave the inode, its
    # claims, and the bitmaps untouched: a textbook orphan
    root_blk, raw, entry = root_entry(m, before, "two")
    struct.pack_into("<I", raw, entry.offset, 0)
    write_block(m.disk.storage, root_blk, raw)
    return "warning", (f"inode {ino_of(before, 'two')} allocated but "
                       f"unreferenced (orphan; fsck reclaims)")


def duplicate_claim(m, before):
    one, two = ino_of(before, "one"), ino_of(before, "two")
    stolen = before.inodes[two].direct[0]
    # point 'one' (the lower ino, scanned first) at 'two's block
    patch_inode(m, one, 28, struct.pack("<I", stolen))
    owner, thief = sorted((one, two))
    return "error", (f"fragment {stolen} claimed by both inode {owner} "
                     f"and inode {thief} (rule 2 violated)")


def link_skew(m, before, nlink=1, direction="below"):
    victim = ino_of(before, "hard")  # true count is 2
    patch_inode(m, victim, 2, struct.pack("<H", nlink))
    return "warning", (f"inode {victim} link count {nlink} {direction} "
                       f"actual references 2 (fsck repairs)")


def used_fragment_marked_free(m, before):
    geo = m.fs.geometry
    victim = ino_of(before, "one")
    daddr = before.inodes[victim].direct[0]
    cg = geo.cg_of_daddr(daddr)
    raw = read_block(m.disk.storage, geo.cg_base(cg))
    CgView(raw, geo).set_frags(daddr - geo.cg_data_start(cg), 1, False)
    write_block(m.disk.storage, geo.cg_base(cg), raw)
    return "warning", (f"fragment {daddr} in use by inode {victim} but "
                       f"marked free (fsck repairs)")


def dangling_entry(m, before):
    # the entry survives, the inode it names was never written (rule 3)
    root_blk, raw, entry = root_entry(m, before, "two")
    struct.pack_into("<I", raw, entry.offset, 99)
    write_block(m.disk.storage, root_blk, raw)
    return "error", ("directory 2 entry 'two' points to unallocated inode "
                     "99 (rule 3 violated)")


def pointer_into_the_boot_area(m, before):
    victim = ino_of(before, "one")
    patch_inode(m, victim, 28, struct.pack("<I", 1))
    return "error", (f"inode {victim} points outside the data area "
                     f"(daddr 1)")


def directory_hole(m, before):
    patch_inode(m, ROOT_INO, 28, struct.pack("<I", 0))
    return "error", "directory 2 has a hole at block 0"


def bad_group_magic(m, before):
    geo = m.fs.geometry
    raw = read_block(m.disk.storage, geo.cg_base(1))
    struct.pack_into("<I", raw, 0, 0)
    write_block(m.disk.storage, geo.cg_base(1), raw)
    return "error", "cylinder group 1 bad magic"


def garbage_mode(m, before):
    victim = ino_of(before, "one")
    patch_inode(m, victim, 0, struct.pack("<H", 0x1000))
    return "error", f"inode {victim} mode 0x1000 unparseable"


#: the census: one image per catalogued invariant fsck itself can find
#: (``stale-data`` is the secrets walk's and ``unrepairable`` repair
#: verification's; tests/integrity/test_explorer.py produces those)
DAMAGE = {
    "leak": orphan,
    "double-alloc": duplicate_claim,
    "link-count": link_skew,
    "bitmap-stale": used_fragment_marked_free,
    "dangling-entry": dangling_entry,
    "bad-pointer": pointer_into_the_boot_area,
    "dir-corrupt": directory_hole,
    "fs-unreadable": bad_group_magic,
    "integrity-error": garbage_mode,
}


def damaged(key, *args):
    """A populated machine after the mutation for *key*, audited:
    ``(m, before, report)`` with the exact finding and its key asserted."""
    m = populated()
    before = fsck(m.disk.storage, SMALL_GEOMETRY)
    kind, message = DAMAGE[key](m, before, *args)
    return m, before, assert_finding(m, kind, message, key)


class TestOrphanedInode:
    def test_exact_code_and_repair(self):
        m, before, report = damaged("leak")
        assert report.clean  # an orphan is repairable, never corruption
        assert ino_of(before, "two") not in report.references
        assert_repairs_to_pristine(m)


class TestDuplicateClaim:
    def test_exact_code(self):
        _m, _before, report = damaged("double-alloc")
        assert not report.clean  # a double claim is true corruption

    def test_repair_refuses_it(self):
        # which claimant keeps the fragment is a choice preen mode does
        # not make
        m, _before, report = damaged("double-alloc")
        with pytest.raises(ValueError, match="claimed by both"):
            repair(m.disk.storage.snapshot(), report, SMALL_GEOMETRY)


def test_missing_root_is_a_finding_and_refused_by_repair():
    # the root dinode zeroed: phase 2 never ran, so no reference was
    # counted and every other inode would look orphaned
    m = populated()
    patch_inode(m, ROOT_INO, 0, bytes(128))
    report = assert_finding(m, "error", "root inode missing",
                            "fs-unreadable")
    assert not report.references
    with pytest.raises(ValueError, match="root inode missing"):
        repair(m.disk.storage.snapshot(), report, SMALL_GEOMETRY)


class TestBadLinkCounts:
    @pytest.mark.parametrize("nlink,direction", [(1, "below"), (7, "above")])
    def test_exact_codes(self, nlink, direction):
        m, _before, report = damaged("link-count", nlink, direction)
        assert report.clean
        assert_repairs_to_pristine(m)


class TestBitmapDrift:
    def test_used_fragment_marked_free(self):
        m, _before, report = damaged("bitmap-stale")
        assert report.clean
        assert_repairs_to_pristine(m)

    def test_allocated_inode_marked_free(self):
        m = populated()
        geo = m.fs.geometry
        before = fsck(m.disk.storage, SMALL_GEOMETRY)
        victim = ino_of(before, "one")
        cg, index = divmod(victim, geo.ipg)
        raw = read_block(m.disk.storage, geo.cg_base(cg))
        CgView(raw, geo).set_inode(index, False)
        write_block(m.disk.storage, geo.cg_base(cg), raw)

        report = assert_finding(
            m, "warning",
            f"inode {victim} allocated but bitmap says free (fsck repairs)",
            "bitmap-stale")
        assert report.clean
        assert_repairs_to_pristine(m)

    def test_free_inode_marked_used(self):
        m = populated()
        geo = m.fs.geometry
        spare = geo.ipg + 50  # cg 1, never allocated
        raw = read_block(m.disk.storage, geo.cg_base(1))
        CgView(raw, geo).set_inode(spare - geo.ipg, True)
        write_block(m.disk.storage, geo.cg_base(1), raw)

        report = assert_finding(
            m, "warning",
            f"inode {spare} bitmap used but dinode free (leak)", "leak")
        assert report.clean
        assert_repairs_to_pristine(m)

    def test_free_fragment_marked_used(self):
        m = populated()
        geo = m.fs.geometry
        daddr = geo.cg_data_start(1) + 300  # never allocated
        raw = read_block(m.disk.storage, geo.cg_base(1))
        CgView(raw, geo).set_frags(300, 1, True)
        write_block(m.disk.storage, geo.cg_base(1), raw)

        report = assert_finding(
            m, "warning",
            f"fragment {daddr} marked used but unreferenced (leak)", "leak")
        assert report.clean
        assert_repairs_to_pristine(m)


# ----------------------------------------------------------------------
# the census, and the catalogue's edge
# ----------------------------------------------------------------------
@pytest.mark.parametrize("key", [
    invariant.key for invariant in INVARIANTS
    if invariant.key not in ("stale-data", "unrepairable")])
def test_every_catalogued_invariant_is_produced_by_a_fixture(key):
    """A catalogue row no image can produce is dead weight nobody would
    notice (the parent's "repair left" pattern could never win)."""
    _m, _before, report = damaged(key)
    assert report.clean == (
        invariant_by_key(key).severity is not Severity.CORRUPTION)


def test_a_check_naming_an_uncatalogued_key_fails_at_the_check():
    with pytest.raises(KeyError):
        finding("inconsistency", "a message nobody classified")


def test_unreadable_superblock_is_a_finding_from_fsck_and_raises_in_repair():
    m = populated()
    m.disk.storage.write(SMALL_GEOMETRY.superblock_daddr * SPF,
                         bytes(SMALL_GEOMETRY.frag_size))
    (found,) = fsck(m.disk.storage, SMALL_GEOMETRY).findings
    assert found.key == "fs-unreadable"
    assert found.message.startswith("superblock unreadable: ")
    reference_classify.assert_agrees([found])
    # the audit recovered nothing to repair from: the superblock decode
    # is what refuses
    image = m.disk.storage.snapshot()
    with pytest.raises(ValueError, match="superblock"):
        repair(image, fsck(image, SMALL_GEOMETRY), SMALL_GEOMETRY)
