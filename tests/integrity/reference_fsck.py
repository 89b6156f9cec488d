"""Reference model of the checker's two per-cylinder-group scans: the
per-slot inode walk and the per-bit bitmap audit the word-width versions
in ``repro.integrity.fsck`` replaced.

Both bodies are the shipped code of the parent commit, unchanged.  They
are kept only so the equivalence tests can require the shipped scans to
return the same lists, element for element and in the same order.
"""

from repro.disk.storage import SectorStore
from repro.fs.alloc import CG_MAGIC, CgView
from repro.fs.layout import Dinode, FSGeometry, ROOT_INO
from repro.integrity.fsck import read_image_frags


def scan_cg_inodes(image: SectorStore, geo: FSGeometry,
                   cg: int) -> list[tuple[int, Dinode]]:
    """All allocated dinodes of one cylinder group, ascending.

    Reads each inode-table block once (not once per inode slot) -- the
    dinodes and their order are exactly what a per-slot walk produces, so
    replaying the result is byte-identical to the slot-by-slot scan.
    """
    table = geo.cg_inode_table(cg)
    per_block = geo.inodes_per_block
    out: list[tuple[int, Dinode]] = []
    for block_index in range(geo.inode_blocks_per_cg):
        raw = read_image_frags(image, geo,
                               table + block_index * geo.frags_per_block,
                               geo.frags_per_block)
        base = cg * geo.ipg + block_index * per_block
        for slot in range(per_block):
            ino = base + slot
            if ino < ROOT_INO:
                continue  # burned inodes
            din = Dinode.unpack(raw[slot * 128:(slot + 1) * 128])
            if din.allocated:
                out.append((ino, din))
    return out


def cg_bitmap_findings(image: SectorStore, geo: FSGeometry, cg: int,
                       claims: dict[int, int],
                       allocated) -> list[tuple[str, str]]:
    """Phase-4 findings for one cylinder group: ``(kind, msg)`` tuples,
    kind ``"error"`` or ``"warning"``.  *claims* maps fragment daddr ->
    owning ino (may be restricted to this group's range); *allocated* is a
    container answering ``ino in allocated``."""
    findings: list[tuple[str, str]] = []
    raw = bytearray(read_image_frags(image, geo, geo.cg_base(cg),
                                     geo.frags_per_block))
    view = CgView(raw, geo)
    if view.magic != CG_MAGIC:
        findings.append(("error", f"cylinder group {cg} bad magic"))
        return findings
    base = geo.cg_data_start(cg)
    frag_bits, inode_bits = view.frag_bits(), view.inode_bits()
    for index in range(geo.dfrags_per_cg):
        daddr = base + index
        used = bool(frag_bits >> index & 1)
        claimed = daddr in claims
        if claimed and not used:
            findings.append(("warning",
                             f"fragment {daddr} in use by inode "
                             f"{claims[daddr]} but marked free "
                             f"(fsck repairs)"))
        elif used and not claimed:
            findings.append(("warning",
                             f"fragment {daddr} marked used but "
                             f"unreferenced (leak)"))
    for index in range(geo.ipg):
        ino = cg * geo.ipg + index
        if ino < ROOT_INO:
            continue
        used = bool(inode_bits >> index & 1)
        is_alloc = ino in allocated
        if is_alloc and not used:
            findings.append(("warning",
                             f"inode {ino} allocated but bitmap says free "
                             f"(fsck repairs)"))
        elif used and not is_alloc and ino != ROOT_INO:
            findings.append(("warning",
                             f"inode {ino} bitmap used but dinode free "
                             f"(leak)"))
    return findings
