"""On-disk layout: sizes, addresses, and the Dinode codec.

Disk addresses (``daddr``) are in *fragments*, FFS-style.  The layout is::

    frag 0 .. FRAGS_PER_BLOCK-1        boot area (unused)
    frag FRAGS_PER_BLOCK .. 2*FPB-1    superblock
    cylinder group 0
    cylinder group 1
    ...
    journal area (``journal_frags`` fragments; 0 unless mkfs reserved one)

and each cylinder group is::

    1 block   cg header (magic, counts, inode bitmap, fragment bitmap)
    N blocks  inode table (ipg inodes, 64 per block)
    M frags   data area

Bitmap convention: bit set = allocated.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field, replace
from functools import cached_property


class FileType(enum.IntEnum):
    """File type, stored in the top bits of ``Dinode.mode``."""

    NONE = 0
    REGULAR = 0x8000
    DIRECTORY = 0x4000

    @staticmethod
    def of(mode: int) -> "FileType":
        return FileType(mode & 0xF000)


#: type nibble -> FileType, for decoding a mode without raising
_FTYPE_OF_BITS = {int(ftype): ftype for ftype in FileType}

#: mode permission default
DEFAULT_PERM = 0o644
#: reserved inode numbers
ROOT_INO = 2
FIRST_INO = 2  # inodes 0 and 1 are never allocated (0 = "unused" marker)

#: inode codec: mode, nlink, uid, gid, size, atime, mtime, ctime,
#: 12 direct, single indirect, double indirect, frags-held, generation, flags
_DINODE_FMT = "<HHHHQIII12IIIIII"
_DINODE_USED = struct.calcsize(_DINODE_FMT)
INODE_SIZE = 128
assert _DINODE_USED <= INODE_SIZE


def allocated_slots(table: bytes) -> list[int]:
    """Slots of inode-table bytes *table* holding an allocated dinode.

    ``mode`` is the record's first two bytes and ``Dinode.allocated`` is
    ``mode != 0``, so a scan can skip free slots without unpacking them.
    """
    low, high = table[0::INODE_SIZE], table[1::INODE_SIZE]
    return [slot for slot in range(len(low)) if low[slot] or high[slot]]


@dataclass(frozen=True)
class FSGeometry:
    """File system shape parameters (fixed at mkfs time)."""

    block_size: int = 8192
    frag_size: int = 1024
    #: inodes per cylinder group
    ipg: int = 2048
    #: data fragments per cylinder group
    dfrags_per_cg: int = 16384
    #: number of cylinder groups (12 x ~17 MB ~= 200 MB: comfortable
    #: headroom for the paper-scale 4-user copy, ~120 MB of data)
    ncg: int = 12
    #: fragments reserved after the last cylinder group for a write-ahead
    #: metadata journal (header fragment + circular log); 0 = no journal
    journal_frags: int = 0

    def __post_init__(self) -> None:
        if self.block_size % self.frag_size != 0:
            raise ValueError("block size must be a multiple of fragment size")
        if self.ipg % self.inodes_per_block != 0:
            raise ValueError("ipg must fill whole inode blocks")
        if self.dfrags_per_cg % self.frags_per_block != 0:
            raise ValueError("data area must be whole blocks")
        if self.ncg < 1:
            raise ValueError("need at least one cylinder group")
        if self.journal_frags and self.journal_frags < 24:
            # header + room for the largest single transaction (descriptor,
            # a handful of block images, commit) with slack to circulate
            raise ValueError("journal area must be 0 or at least 24 frags")

    # -- derived sizes: functions of the frozen fields alone, so each is
    # computed once per instance (cached_property stores into __dict__,
    # which __eq__, __hash__, replace() and repr() never look at)
    @cached_property
    def frags_per_block(self) -> int:
        return self.block_size // self.frag_size

    @cached_property
    def inodes_per_block(self) -> int:
        return self.block_size // INODE_SIZE

    @cached_property
    def inode_blocks_per_cg(self) -> int:
        return self.ipg // self.inodes_per_block

    @cached_property
    def cg_frags(self) -> int:
        """Total fragments per cylinder group (header + inodes + data)."""
        return (self.frags_per_block
                + self.inode_blocks_per_cg * self.frags_per_block
                + self.dfrags_per_cg)

    @cached_property
    def cg_start(self) -> int:
        """Fragment address of cylinder group 0 (after boot + superblock)."""
        return 2 * self.frags_per_block

    @cached_property
    def superblock_daddr(self) -> int:
        return self.frags_per_block

    @cached_property
    def journal_start(self) -> int:
        """Fragment address of the journal header (just past the last cg)."""
        return self.cg_start + self.ncg * self.cg_frags

    @cached_property
    def total_frags(self) -> int:
        return self.journal_start + self.journal_frags

    @cached_property
    def total_inodes(self) -> int:
        return self.ncg * self.ipg

    #: direct pointers per inode and indirect fan-out
    NDADDR = 12

    @cached_property
    def nindir(self) -> int:
        """Pointers per indirect block."""
        return self.block_size // 4

    @cached_property
    def max_file_blocks(self) -> int:
        return self.NDADDR + self.nindir + self.nindir * self.nindir

    # -- cylinder group addressing ------------------------------------------
    def cg_base(self, cg: int) -> int:
        """Fragment address of cylinder group *cg*'s header."""
        self._check_cg(cg)
        return self.cg_start + cg * self.cg_frags

    def cg_inode_table(self, cg: int) -> int:
        """Fragment address of *cg*'s first inode block."""
        return self.cg_base(cg) + self.frags_per_block

    def cg_data_start(self, cg: int) -> int:
        """Fragment address of *cg*'s data area."""
        return (self.cg_inode_table(cg)
                + self.inode_blocks_per_cg * self.frags_per_block)

    def cg_of_inode(self, ino: int) -> int:
        self._check_ino(ino)
        return ino // self.ipg

    def inode_block_daddr(self, ino: int) -> int:
        """Fragment address of the inode block containing *ino*."""
        cg = self.cg_of_inode(ino)
        index = ino % self.ipg
        block = index // self.inodes_per_block
        return self.cg_inode_table(cg) + block * self.frags_per_block

    def inode_offset_in_block(self, ino: int) -> int:
        """Byte offset of *ino* within its inode block."""
        return (ino % self.inodes_per_block) * INODE_SIZE

    def cg_of_daddr(self, daddr: int) -> int:
        """Cylinder group owning data fragment *daddr*.

        Journal-area fragments are deliberately outside every cylinder
        group: a file pointer aimed into the journal is as invalid as one
        aimed at the boot block.
        """
        if daddr < self.cg_start or daddr >= self.journal_start:
            raise ValueError(f"daddr {daddr} outside cylinder groups")
        return (daddr - self.cg_start) // self.cg_frags

    def data_index(self, daddr: int) -> int:
        """Index of *daddr* within its cylinder group's data-area bitmap."""
        cg = self.cg_of_daddr(daddr)
        index = daddr - self.cg_data_start(cg)
        if not (0 <= index < self.dfrags_per_cg):
            raise ValueError(f"daddr {daddr} is not in a data area")
        return index

    def _check_cg(self, cg: int) -> None:
        if not (0 <= cg < self.ncg):
            raise ValueError(f"cylinder group {cg} out of range")

    def _check_ino(self, ino: int) -> None:
        if not (0 <= ino < self.total_inodes):
            raise ValueError(f"inode {ino} out of range")


def with_journal(geometry: FSGeometry) -> FSGeometry:
    """*geometry* with a journal area sized to the file system.

    Roughly 1.5% of the data area, clamped so small test geometries still
    wrap their log (exercising space reclaim) and paper-scale ones do not
    spend megabytes on it.  Idempotent: a geometry that already reserves a
    journal is returned unchanged.
    """
    if geometry.journal_frags:
        return geometry
    log = min(2048, max(128, (geometry.ncg * geometry.dfrags_per_cg) // 64))
    return replace(geometry, journal_frags=log + 1)


@dataclass
class Dinode:
    """The 128-byte on-disk inode."""

    mode: int = 0
    nlink: int = 0
    uid: int = 0
    gid: int = 0
    size: int = 0
    atime: int = 0
    mtime: int = 0
    ctime: int = 0
    direct: list[int] = field(default_factory=lambda: [0] * FSGeometry.NDADDR)
    sindirect: int = 0
    dindirect: int = 0
    frags_held: int = 0
    generation: int = 0
    flags: int = 0

    @property
    def ftype(self) -> FileType:
        return FileType.of(self.mode)

    @property
    def safe_ftype(self) -> FileType | None:
        """``ftype`` for the checkers of damaged images: a garbage type
        nibble is None (a finding), not a ``ValueError`` out of them."""
        return _FTYPE_OF_BITS.get(self.mode & 0xF000)

    @property
    def allocated(self) -> bool:
        return self.mode != 0

    def pack(self) -> bytes:
        raw = struct.pack(_DINODE_FMT, self.mode, self.nlink, self.uid,
                          self.gid, self.size, self.atime, self.mtime,
                          self.ctime, *self.direct, self.sindirect,
                          self.dindirect, self.frags_held, self.generation,
                          self.flags)
        return raw + bytes(INODE_SIZE - len(raw))

    @classmethod
    def unpack(cls, raw: bytes) -> "Dinode":
        if len(raw) < _DINODE_USED:
            raise ValueError(f"short inode record: {len(raw)} bytes")
        fields = struct.unpack_from(_DINODE_FMT, raw)
        return cls(mode=fields[0], nlink=fields[1], uid=fields[2],
                   gid=fields[3], size=fields[4], atime=fields[5],
                   mtime=fields[6], ctime=fields[7],
                   direct=list(fields[8:20]), sindirect=fields[20],
                   dindirect=fields[21], frags_held=fields[22],
                   generation=fields[23], flags=fields[24])

    def copy(self) -> "Dinode":
        clone = Dinode.unpack(self.pack())
        return clone


def block_frags(geo: FSGeometry, din: Dinode, lblk: int) -> int:
    """Fragments held by logical block *lblk* of *din* at its current size:
    a full block, except the tail of a file that fits in the direct blocks
    (directories always hold full blocks)."""
    if din.safe_ftype is FileType.DIRECTORY:
        return geo.frags_per_block
    size = din.size
    last = (size - 1) // geo.block_size if size else 0
    if (lblk < last or lblk >= geo.NDADDR
            or size > geo.NDADDR * geo.block_size):
        return geo.frags_per_block
    tail = size - lblk * geo.block_size
    return max(1, (tail + geo.frag_size - 1) // geo.frag_size)
