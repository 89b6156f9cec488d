"""Security-hole detection for allocation initialization (paper, section 1).

"If this ordering is not enforced, a system failure could result in the file
containing data from some previously deleted file, presenting both an
integrity weakness and a security hole."

``plant_secrets`` fills every free data fragment of an image with a marker
pattern (standing in for a deleted user's secrets still on the platters).
``find_secret_leaks`` then audits a crashed image: any *readable* byte range
of any file (within its on-disk size) that still shows the marker means a
crash exposed stale data -- exactly what allocation initialization prevents.
"""

from __future__ import annotations

from repro.disk.storage import SectorStore
from repro.fs.alloc import CgView, set_bits
from repro.fs.layout import FileType, FSGeometry
from repro.integrity.fsck import FsckReport, RecoveredView, block_map, fsck
from repro.integrity.invariants import Violation, finding

SECRET = b"\xde\xad\xf1\x1e"  # repeated to fill fragments


def plant_secrets(image: SectorStore, geometry: FSGeometry) -> int:
    """Fill every free data fragment with the marker; returns count filled."""
    spf = geometry.frag_size // image.geometry.sector_size
    marker = SECRET * (geometry.frag_size // len(SECRET))
    planted = 0
    for cg in range(geometry.ncg):
        raw = image.read(geometry.cg_base(cg) * spf,
                         geometry.frags_per_block * spf)
        base = geometry.cg_data_start(cg)
        all_used = (1 << geometry.dfrags_per_cg) - 1
        for index in set_bits(CgView(raw, geometry).frag_bits() ^ all_used):
            image.write((base + index) * spf, marker)
            planted += 1
    return planted


def find_secret_leaks(image: SectorStore,
                      geometry: FSGeometry | None = None,
                      report: FsckReport | None = None) -> list[Violation]:
    """Files whose readable contents still contain the planted marker, one
    ``stale-data`` finding per exposing block.  *report* is an audit of
    *image* the caller already ran; the walk takes its allocated inode
    table (``inodes``) and its log scan (``journal``) from there, and
    without it audits the image itself.

    The walk reads the *recovered* image: journaling leaves committed
    metadata (indirect blocks included) in the log with home still
    holding a previous owner's bytes, and recovery replays the log before
    any file is readable -- so, like fsck, the walk reads through a
    :class:`~repro.integrity.fsck.RecoveredView`.  Each logical block is
    found through fsck's :func:`~repro.integrity.fsck.block_map`, indirect
    blocks included, and pointers that leave the data area are skipped
    (fsck books them as corruption findings; dereferencing a torn
    pointer's garbage here would just crash the auditor).
    """
    geometry = geometry or FSGeometry()
    if report is None:
        report = fsck(image, geometry)
    image = RecoveredView(image).recover(geometry, report.journal)
    spf = geometry.frag_size // image.geometry.sector_size
    leaks: list[Violation] = []
    for ino, din in report.inodes.items():
        if din.safe_ftype is not FileType.REGULAR:
            continue
        for lblk, _count, daddr in block_map(image, geometry, din):
            if daddr is None:
                continue
            take = min(din.size - lblk * geometry.block_size,
                       geometry.block_size)
            frags = (take + geometry.frag_size - 1) // geometry.frag_size
            if SECRET in image.read(daddr * spf, frags * spf)[:take]:
                where = f"block {lblk}" if lblk < geometry.NDADDR \
                    else "indirect block"
                leaks.append(finding(
                    "stale-data", f"stale data exposed: inode {ino} "
                                  f"{where} exposes stale data"))
    return leaks
