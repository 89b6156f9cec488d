"""Reference model of fsck's repair: the scan-based ``repair()`` that
decoded the image itself instead of acting on the audit it follows.

The body is the shipped code of the parent commit, unchanged but for the
log replay: ``journal.replay_into`` now takes the scan it applies, so the
reference scans the log for itself and hands it over, as it used to do
inside the call.  It builds its own checker (phases 1-2 over the
recovered image), cascades the orphans off that checker's tables, and
rebuilds each bitmap one checked ``set_frags`` / ``set_inode`` call per
differing bit.  It is kept only so ``test_repair_equivalence.py`` can
require the shipped repair to leave the same bytes.
"""

from repro.disk.storage import SectorStore
from repro.fs import journal
from repro.fs.alloc import CgView, bits_of, set_bits
from repro.fs.layout import INODE_SIZE, ROOT_INO, Dinode, FileType, FSGeometry
from repro.fs.superblock import Superblock
from repro.integrity.fsck import (
    Auditor,
    FsckReport,
    _Checker,
    fsck,
    read_image_frags,
)


def reference_repair(image: SectorStore, geometry: FSGeometry | None = None,
                     auditor: Auditor | None = None) -> FsckReport:
    """Repair an image in place (warnings only); returns the re-audit,
    made by *auditor* (default: a one-shot :func:`fsck`)."""
    geometry = geometry or FSGeometry()
    geo = Superblock.unpack(read_image_frags(
        image, geometry, geometry.superblock_daddr, 1)).geometry
    spf = geo.frag_size // image.geometry.sector_size
    if geo.journal_frags:
        # recovery proper: physically replay the committed log and retire
        # it, so the repairs below operate on the recovered image and the
        # repaired image mounts with an empty log
        journal.replay_into(
            journal.scan_journal(
                lambda daddr, n: image.read(daddr * spf, n * spf), geo),
            lambda daddr, data: image.write(daddr * spf, data),
            geo)
    checker = _Checker(image, geo)
    checker.scan_inodes()
    checker.scan_directories()

    # orphan detection cascades: clearing an unreferenced directory removes
    # its entries, which can orphan its children (and drops the '..'
    # reference it contributed to its parent's link count)
    orphans: set[int] = set()
    changed = True
    while changed:
        changed = False
        for ino in checker.report.inodes:
            if ino == ROOT_INO or ino in orphans:
                continue
            live_refs = [dir_ino for dir_ino, _name
                         in checker.report.references.get(ino, [])
                         if dir_ino not in orphans]
            if not live_refs:
                orphans.add(ino)
                changed = True

    def write_inode(ino: int, din: Dinode) -> None:
        daddr = geo.inode_block_daddr(ino)
        block = bytearray(image.read(daddr * spf,
                                     geo.frags_per_block * spf))
        at = geo.inode_offset_in_block(ino)
        block[at:at + INODE_SIZE] = din.pack()
        image.write(daddr * spf, bytes(block))

    # fix link counts (counting only references that survive the orphan
    # sweep); clear orphans
    for ino, din in checker.report.inodes.items():
        if ino in orphans:
            write_inode(ino, Dinode())
            continue
        refs = sum(1 for dir_ino, _name
                   in checker.report.references.get(ino, [])
                   if dir_ino not in orphans)
        if din.safe_ftype is FileType.DIRECTORY:
            refs += 1
        if din.nlink != refs:
            din.nlink = refs
            write_inode(ino, din)

    # rebuild the bitmaps from the surviving (non-orphan) claims and
    # inodes: diff the wanted bits against the stored ones, flip those
    claims: list[list[int]] = [[] for _cg in range(geo.ncg)]
    for daddr, owner in checker.owner.items():
        if owner not in orphans:
            # a claim is a valid data fragment: its group is arithmetic
            claims[(daddr - geo.cg_start) // geo.cg_frags].append(daddr)
    for cg, group in enumerate(checker.groups):
        raw = bytearray(image.read(geo.cg_base(cg) * spf,
                                   geo.frags_per_block * spf))
        view = CgView(raw, geo)
        base, first = geo.cg_data_start(cg), cg * geo.ipg
        wanted = bits_of([daddr - base for daddr in claims[cg]],
                         geo.dfrags_per_cg)
        for index in set_bits(view.frag_bits() ^ wanted):
            view.set_frags(index, 1, bool(wanted >> index & 1))
        view.free_frags = geo.dfrags_per_cg - wanted.bit_count()
        burned = range(ROOT_INO) if cg == 0 else ()
        wanted = bits_of([*burned, *(ino - first for ino in group.inodes
                                     if ino not in orphans)], geo.ipg)
        for index in set_bits(view.inode_bits() ^ wanted):
            view.set_inode(index, bool(wanted >> index & 1))
        view.free_inodes = geo.ipg - wanted.bit_count()
        image.write(geo.cg_base(cg) * spf, bytes(raw))

    return (auditor.audit(image) if auditor is not None
            else fsck(image, geometry))
