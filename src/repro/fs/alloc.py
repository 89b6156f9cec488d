"""Cylinder groups and the block/fragment/inode allocator.

The cylinder-group header block holds the group's counters and two bitmaps
(inodes, data fragments); :class:`CgView` edits those bytes in place inside
the header's cache buffer, so every allocation is a real metadata update
flowing through the buffer cache -- and therefore through whatever ordering
scheme is mounted.

Policies (simplified FFS):

* new directories go to the cylinder group with the most free inodes,
* files get inodes in their parent directory's group,
* data is allocated in the owning inode's group, falling back to the
  globally emptiest group,
* small files end in a fragment run; growing past it first tries in-place
  extension, then moves the data to a larger run (generating the
  deallocation-dependency special case the paper's appendix discusses).

Bitmap writes themselves are always *delayed*: a stale bitmap is repairable
by fsck in both directions (leak, or referenced-but-free), which is why none
of the paper's schemes order bitmap writes -- they order the pointer writes
around them.
"""

from __future__ import annotations

import struct
from typing import Generator, Optional

from repro.cache.buffercache import BufferCache
from repro.fs.layout import FSGeometry

CG_MAGIC = 0xC6C6C6C6
_CG_HDR_FMT = "<IIII"
_CG_BITMAPS_AT = 64


def _first_free_run_in_byte(byte: int, count: int) -> int:
    """Offset of the first run of *count* clear bits in *byte*, or -1."""
    run = 0
    for bit in range(8):
        if byte & (1 << bit):
            run = 0
        else:
            run += 1
            if run == count:
                return bit - count + 1
    return -1


#: FIRST_RUN[byte][count-1] -> first offset of a free run of `count`, or -1
_FIRST_RUN = [[_first_free_run_in_byte(byte, count) for count in range(1, 9)]
              for byte in range(256)]

#: RUN_MATCH[count-1]: 256-entry translate table mapping a bitmap byte to
#: 1 iff it is *partially* used (not fully free) and holds a free run of
#: `count` -- bytes.translate + find then scan whole bitmaps at C speed
_RUN_MATCH = [bytes(1 if (byte and _FIRST_RUN[byte][slot] >= 0) else 0
                    for byte in range(256))
              for slot in range(8)]

#: SET_BITS[byte] -> the offsets of its set bits, ascending
_SET_BITS = [tuple(bit for bit in range(8) if byte >> bit & 1)
             for byte in range(256)]


def bits_of(indices, count: int) -> int:
    """A *count*-bit bitmap as one int with bit i set for each i in
    *indices* (what :meth:`CgView.frag_bits` reads back)."""
    raw = bytearray((count + 7) // 8)
    for index in indices:
        raw[index >> 3] |= 1 << (index & 7)
    return int.from_bytes(raw, "little")


def set_bits(bits: int) -> list[int]:
    """Indices of the set bits of *bits*, ascending."""
    raw = bits.to_bytes((bits.bit_length() + 7) // 8, "little")
    return [at * 8 + bit for at, byte in enumerate(raw) if byte
            for bit in _SET_BITS[byte]]


class CgView:
    """Byte-level view of one cylinder-group header block."""

    def __init__(self, data: bytearray, geometry: FSGeometry) -> None:
        self.data = data
        self.geometry = geometry
        self._ibm_at = _CG_BITMAPS_AT
        self._fbm_at = _CG_BITMAPS_AT + (geometry.ipg + 7) // 8

    # -- header ------------------------------------------------------------
    @classmethod
    def initialize(cls, data: bytearray, index: int,
                   geometry: FSGeometry) -> "CgView":
        struct.pack_into(_CG_HDR_FMT, data, 0, CG_MAGIC, index,
                         geometry.ipg, geometry.dfrags_per_cg)
        return cls(data, geometry)

    @property
    def magic(self) -> int:
        return struct.unpack_from("<I", self.data, 0)[0]

    @property
    def index(self) -> int:
        return struct.unpack_from("<I", self.data, 4)[0]

    @property
    def free_inodes(self) -> int:
        return struct.unpack_from("<I", self.data, 8)[0]

    @free_inodes.setter
    def free_inodes(self, value: int) -> None:
        struct.pack_into("<I", self.data, 8, value)

    @property
    def free_frags(self) -> int:
        return struct.unpack_from("<I", self.data, 12)[0]

    @free_frags.setter
    def free_frags(self, value: int) -> None:
        struct.pack_into("<I", self.data, 12, value)

    # -- bit primitives -------------------------------------------------------
    def _get(self, base: int, index: int) -> bool:
        return bool(self.data[base + index // 8] & (1 << (index % 8)))

    def _set(self, base: int, index: int, used: bool) -> None:
        if used:
            self.data[base + index // 8] |= 1 << (index % 8)
        else:
            self.data[base + index // 8] &= ~(1 << (index % 8)) & 0xFF

    def _bits(self, base: int, count: int) -> int:
        """A whole bitmap as one int, bit i = index i; bits past *count*
        in the last byte are masked off."""
        return int.from_bytes(self.data[base:base + (count + 7) // 8],
                              "little") & ((1 << count) - 1)

    def store_bitmaps(self, inodes: int, frags: int) -> None:
        """Store both bitmaps whole, as :meth:`inode_bits` and
        :meth:`frag_bits` read them (the bits past each count are kept),
        and the free counts they leave."""
        geo = self.geometry
        for at, count, bits in ((self._ibm_at, geo.ipg, inodes),
                                (self._fbm_at, geo.dfrags_per_cg, frags)):
            end = at + (count + 7) // 8
            past = int.from_bytes(self.data[at:end], "little") >> count
            self.data[at:end] = (past << count | bits).to_bytes(end - at,
                                                                "little")
        self.free_inodes = geo.ipg - inodes.bit_count()
        self.free_frags = geo.dfrags_per_cg - frags.bit_count()

    # -- inode bitmap -----------------------------------------------------------
    def inode_bits(self) -> int:
        return self._bits(self._ibm_at, self.geometry.ipg)

    def set_inode(self, index: int, used: bool) -> None:
        self._check(index, self.geometry.ipg)
        if self._get(self._ibm_at, index) == used:
            raise RuntimeError(
                f"inode bit {index} already {'set' if used else 'clear'}")
        self._set(self._ibm_at, index, used)
        self.free_inodes += -1 if used else 1

    def find_free_inode(self, start: int = 0) -> Optional[int]:
        ipg = self.geometry.ipg
        for offset in range(ipg):
            index = (start + offset) % ipg
            if not self._get(self._ibm_at, index):
                return index
        return None

    # -- fragment bitmap -----------------------------------------------------
    def frag_bits(self) -> int:
        return self._bits(self._fbm_at, self.geometry.dfrags_per_cg)

    def set_frags(self, index: int, count: int, used: bool) -> None:
        for i in range(index, index + count):
            self._check(i, self.geometry.dfrags_per_cg)
            if self._get(self._fbm_at, i) == used:
                raise RuntimeError(
                    f"frag bit {i} already {'set' if used else 'clear'}")
            self._set(self._fbm_at, i, used)
        self.free_frags += -count if used else count

    def run_free(self, index: int, count: int) -> bool:
        limit = self.geometry.dfrags_per_cg
        if index < 0 or index + count > limit:
            return False
        return all(not self._get(self._fbm_at, i)
                   for i in range(index, index + count))

    def find_block(self, rotor: int = 0) -> Optional[int]:
        """Index of a free, block-aligned run of a whole block's fragments."""
        fpb = self.geometry.frags_per_block
        nblocks = self.geometry.dfrags_per_cg // fpb
        start_block = (rotor // fpb) % nblocks
        if fpb == 8:
            # one bitmap byte per block: let bytes.find do the scanning
            view = bytes(self.data[self._fbm_at:self._fbm_at + nblocks])
            at = view.find(0, start_block)
            if at < 0:
                at = view.find(0, 0, start_block)
            return at * fpb if at >= 0 else None
        for offset in range(nblocks):
            block = (start_block + offset) % nblocks
            index = block * fpb
            if self.run_free(index, fpb):
                return index
        return None

    def find_frag_run(self, count: int, rotor: int = 0) -> Optional[int]:
        """Index of a free run of *count* frags inside one block.

        Prefers partially-used blocks (FFS keeps full blocks for full-block
        allocations) and falls back to carving the front of a free block.
        """
        fpb = self.geometry.frags_per_block
        nblocks = self.geometry.dfrags_per_cg // fpb
        start_block = (rotor // fpb) % nblocks
        if fpb == 8:
            # one bitmap byte per block.  A partially-used block with a
            # fitting run anywhere in the rotation beats the fallback (the
            # first fully-free block in rotation order), so scan for the
            # partial match first -- both scans are C-speed find()s over
            # the translated byte map
            slot = count - 1
            view = bytes(self.data[self._fbm_at:self._fbm_at + nblocks])
            match = view.translate(_RUN_MATCH[slot])
            at = match.find(1, start_block)
            if at < 0:
                at = match.find(1, 0, start_block)
            if at >= 0:
                return at * 8 + _FIRST_RUN[view[at]][slot]
            free = view.find(0, start_block)
            if free < 0:
                free = view.find(0, 0, start_block)
            return free * 8 if free >= 0 else None
        fallback = None
        for offset in range(nblocks):
            block = (start_block + offset) % nblocks
            base = block * fpb
            free_in_block = sum(not self._get(self._fbm_at, base + i)
                                for i in range(fpb))
            if free_in_block < count:
                continue
            if free_in_block == fpb:
                if fallback is None:
                    fallback = base
                continue
            run = self._first_run(base, count)
            if run is not None:
                return run
        return fallback

    def _first_run(self, block_base: int, count: int) -> Optional[int]:
        fpb = self.geometry.frags_per_block
        run = 0
        for i in range(fpb):
            if self._get(self._fbm_at, block_base + i):
                run = 0
            else:
                run += 1
                if run == count:
                    return block_base + i - count + 1
        return None

    def _check(self, index: int, limit: int) -> None:
        if not (0 <= index < limit):
            raise ValueError(f"bitmap index {index} out of range (<{limit})")


class Allocator:
    """Allocation front-end working through the buffer cache.

    All methods are simulated-process subroutines (``yield from``).  Bitmap
    buffers are released with delayed writes; ordering around allocation and
    deallocation is the mounted scheme's job.
    """

    def __init__(self, geometry: FSGeometry, cache: BufferCache) -> None:
        self.geometry = geometry
        self.cache = cache
        # in-memory summaries (rebuilt at mount); advisory, like FFS csum
        self.cg_free_inodes = [0] * geometry.ncg
        self.cg_free_frags = [0] * geometry.ncg
        self._rotor = [0] * geometry.ncg

    # -- header access -------------------------------------------------------
    def _cg_buf(self, cg: int) -> Generator:
        return self.cache.bread(self.geometry.cg_base(cg),
                                self.geometry.block_size)

    def load_summaries(self) -> Generator:
        """Rebuild the in-memory free counts from the on-disk headers."""
        for cg in range(self.geometry.ncg):
            buf = yield from self._cg_buf(cg)
            view = CgView(buf.data, self.geometry)
            if view.magic != CG_MAGIC:
                self.cache.brelse(buf)
                raise RuntimeError(f"bad cylinder group magic in cg {cg}")
            self.cg_free_inodes[cg] = view.free_inodes
            self.cg_free_frags[cg] = view.free_frags
            self.cache.brelse(buf)

    # -- inode allocation -----------------------------------------------------
    def alloc_inode(self, hint_cg: int, for_directory: bool) -> Generator:
        """Allocate an inode; returns its number."""
        cg = self._pick_inode_cg(hint_cg, for_directory)
        if cg is None:
            raise OutOfSpace("no free inodes")
        buf = yield from self._cg_buf(cg)
        view = CgView(buf.data, self.geometry)
        index = view.find_free_inode(start=self._rotor[cg] % self.geometry.ipg)
        if index is None:
            self.cache.brelse(buf)
            raise OutOfSpace(f"cg {cg} summary said free inodes but none found")
        ino = cg * self.geometry.ipg + index
        if ino < 3:
            # never hand out inodes 0..2 (unused markers and root)
            view.set_inode(index, True)  # burn it permanently
            self.cg_free_inodes[cg] -= 1
            self.cache.bdwrite(buf)
            result = yield from self.alloc_inode(hint_cg, for_directory)
            return result
        view.set_inode(index, True)
        self.cg_free_inodes[cg] -= 1
        self.cache.bdwrite(buf)
        return ino

    def free_inode(self, ino: int) -> Generator:
        cg = self.geometry.cg_of_inode(ino)
        buf = yield from self._cg_buf(cg)
        view = CgView(buf.data, self.geometry)
        view.set_inode(ino % self.geometry.ipg, False)
        self.cg_free_inodes[cg] += 1
        self.cache.bdwrite(buf)

    # -- fragment/block allocation ------------------------------------------
    def alloc_block(self, hint_cg: int) -> Generator:
        """Allocate a full block; returns its fragment daddr."""
        daddr = yield from self.alloc_frags(hint_cg,
                                            self.geometry.frags_per_block)
        return daddr

    def alloc_frags(self, hint_cg: int, count: int) -> Generator:
        """Allocate a run of *count* fragments within one block."""
        fpb = self.geometry.frags_per_block
        if not (1 <= count <= fpb):
            raise ValueError(f"fragment run of {count} (block is {fpb})")
        cg = self._pick_data_cg(hint_cg, count)
        if cg is None:
            raise OutOfSpace("file system data area full")
        buf = yield from self._cg_buf(cg)
        view = CgView(buf.data, self.geometry)
        if count == fpb:
            index = view.find_block(self._rotor[cg])
        else:
            index = view.find_frag_run(count, self._rotor[cg])
        if index is None:
            self.cache.brelse(buf)
            raise OutOfSpace(f"cg {cg} cannot satisfy a run of {count}")
        view.set_frags(index, count, True)
        self.cg_free_frags[cg] -= count
        self._rotor[cg] = index + count
        self.cache.bdwrite(buf)
        return self.geometry.cg_data_start(cg) + index

    def try_extend_frags(self, daddr: int, old_count: int,
                         new_count: int) -> Generator:
        """Extend a fragment run in place.  Returns True on success."""
        if new_count <= old_count:
            raise ValueError("extension must grow the run")
        fpb = self.geometry.frags_per_block
        cg = self.geometry.cg_of_daddr(daddr)
        index = self.geometry.data_index(daddr)
        if (index % fpb) + new_count > fpb:
            return False  # would cross the block boundary
        buf = yield from self._cg_buf(cg)
        view = CgView(buf.data, self.geometry)
        grow = new_count - old_count
        if not view.run_free(index + old_count, grow):
            self.cache.brelse(buf)
            return False
        view.set_frags(index + old_count, grow, True)
        self.cg_free_frags[cg] -= grow
        self.cache.bdwrite(buf)
        return True

    def free_frags(self, daddr: int, count: int) -> Generator:
        """Return a fragment run to the free pool (bitmap update, delayed)."""
        cg = self.geometry.cg_of_daddr(daddr)
        index = self.geometry.data_index(daddr)
        buf = yield from self._cg_buf(cg)
        view = CgView(buf.data, self.geometry)
        view.set_frags(index, count, False)
        self.cg_free_frags[cg] += count
        self.cache.bdwrite(buf)

    # -- placement policies ----------------------------------------------------
    def _pick_inode_cg(self, hint: int, for_directory: bool) -> Optional[int]:
        if for_directory:
            best = max(range(self.geometry.ncg),
                       key=lambda cg: self.cg_free_inodes[cg])
            return best if self.cg_free_inodes[best] > 0 else None
        if self.cg_free_inodes[hint] > 0:
            return hint
        for cg in range(self.geometry.ncg):
            if self.cg_free_inodes[cg] > 0:
                return cg
        return None

    def _pick_data_cg(self, hint: int, count: int) -> Optional[int]:
        if self.cg_free_frags[hint] >= count:
            return hint
        candidates = [cg for cg in range(self.geometry.ncg)
                      if self.cg_free_frags[cg] >= count]
        if not candidates:
            return None
        return max(candidates, key=lambda cg: self.cg_free_frags[cg])


class OutOfSpace(Exception):
    """The file system cannot satisfy an allocation."""
