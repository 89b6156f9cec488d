"""mkfs: build an empty file system image directly on the sector store.

This runs outside simulated time (the paper's file systems were newfs'ed
before the clock that matters started).  It lays down the superblock, every
cylinder-group header with correct counts, and the root directory.
"""

from __future__ import annotations

from repro.disk.drive import Disk
from repro.fs import directory, journal
from repro.fs.alloc import CgView
from repro.fs.layout import Dinode, FileType, FSGeometry, ROOT_INO
from repro.fs.superblock import Superblock


def _frag_pad_dir(first_chunk: bytes, frag_size: int) -> bytes:
    """A directory fragment: the given first chunk plus empty chunks."""
    chunks = [first_chunk]
    while sum(len(c) for c in chunks) < frag_size:
        chunks.append(directory.empty_chunk())
    return b"".join(chunks)


def mkfs(disk: Disk, geometry: FSGeometry | None = None) -> Superblock:
    """Create the file system; returns the superblock that was written."""
    geometry = geometry or FSGeometry()
    sector = disk.geometry.sector_size
    spf = geometry.frag_size // sector
    if geometry.total_frags * spf > disk.geometry.total_sectors:
        raise ValueError(
            f"file system needs {geometry.total_frags * spf} sectors; disk "
            f"has {disk.geometry.total_sectors}")

    def write_frags(daddr: int, data: bytes) -> None:
        disk.write_now(daddr * spf, data)

    superblock = Superblock(geometry=geometry)
    write_frags(geometry.superblock_daddr,
                superblock.pack(geometry.frag_size))

    if geometry.journal_frags:
        # an empty journal: the durable tail points at position 0 of a log
        # whose first descriptor has not been written yet
        write_frags(geometry.journal_start,
                    journal.header_bytes(geometry.frag_size, 1, 0))

    # cylinder group headers
    for cg in range(geometry.ncg):
        header = bytearray(geometry.block_size)
        view = CgView.initialize(header, cg, geometry)
        if cg == 0:
            # burn inodes 0 and 1, allocate the root inode (2) and the root
            # directory's data: the first full block of cg 0's data area
            # (directories always occupy whole blocks in this implementation)
            view.store_bitmaps(0b111, (1 << geometry.frags_per_block) - 1)
        else:
            view.store_bitmaps(0, 0)
        write_frags(geometry.cg_base(cg), bytes(header))

    # root directory contents and inode
    root_daddr = geometry.cg_data_start(0)
    root_data = _frag_pad_dir(directory.new_dir_contents(ROOT_INO, ROOT_INO),
                              geometry.block_size)
    write_frags(root_daddr, root_data)

    root = Dinode(mode=int(FileType.DIRECTORY) | 0o755, nlink=2,
                  size=geometry.block_size,
                  frags_held=geometry.frags_per_block)
    root.direct[0] = root_daddr
    inode_block = bytearray(geometry.block_size)
    inode_block[geometry.inode_offset_in_block(ROOT_INO):
                geometry.inode_offset_in_block(ROOT_INO) + len(root.pack())] \
        = root.pack()
    write_frags(geometry.inode_block_daddr(ROOT_INO), bytes(inode_block))
    return superblock
