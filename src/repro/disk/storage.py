"""The persistent sector store: what the platters hold.

This is the ground truth that survives a simulated crash, and crash-
consistency checking (``repro.integrity``) operates directly on a snapshot
of it.  :class:`SectorStore` keeps the disk as a sparse map of fixed-span
``bytearray`` chunks, so ``read``/``write``/``write_partial`` are slice
operations (C-speed memcpy, no per-sector objects) and ``snapshot`` shares
every chunk copy-on-write.

The equivalence suites compare it against a per-sector dict reference model
kept under ``tests/disk/`` (identical reads, ``digest()``, instrumentation
counters, and whole-machine observables).
"""

from __future__ import annotations

import hashlib
from typing import Iterator, Optional
from weakref import ref

from repro.disk.geometry import DiskGeometry

#: backing-chunk span, in sectors (64 KB at 512-byte sectors).  FFS scatters
#: writes across cylinder groups, so large first-touch chunks and large
#: copy-on-write copies are mostly zeros: measured on the repo benchmark
#: (docs/performance.md), 4096-sector (2 MB) chunks cost 43-54 MB more peak
#: RSS on ``copy4`` / ``remove4`` / ``dirops`` and 26 MB more on
#: ``crash_sweep`` than 128-sector ones, and buy no CPU on any of the four.
#: A constant, not a knob.
GROW_CHUNK_SECTORS = 128


class SectorStore:
    """Sparse persistent storage addressed by sector (LBN).

    The backing is a sparse map of fixed-span ``bytearray`` chunks
    (:data:`GROW_CHUNK_SECTORS` sectors each), allocated zero-filled the
    first time a write touches their span; reads from unallocated spans
    are holes and return zeros without allocating.  Within a chunk a
    sector write is a single C memcpy -- no per-sector ``bytes`` objects,
    no dict churn, and (unlike one contiguous buffer grown toward the
    high-watermark) no repeated zero-fill/copy traffic when the file
    system scatters writes across distant cylinder groups.

    A parallel occupancy byte map (one byte per sector, grown to the
    written high-watermark) keeps the "distinct sectors ever written"
    accounting (``__len__``) and gives the scans their skip-holes
    iteration order.
    """

    def __init__(self, geometry: DiskGeometry) -> None:
        self.geometry = geometry
        self._zero = bytes(geometry.sector_size)
        #: total sectors ever written (instrumentation; snapshots inherit
        #: the count so clones report identically to their source)
        self.sectors_written = 0
        #: chunk index -> bytearray(GROW_CHUNK_SECTORS * sector_size)
        self._chunks: dict[int, bytearray] = {}
        #: chunk indices whose bytearray was shared with another store of
        #: the family when this store last looked: copy-on-write -- the
        #: next write to one copies it first if another live store still
        #: holds it, so ``snapshot`` itself is O(chunks) pointer copies
        self._shared: set[int] = set()
        #: weak references to the stores that share (or shared) chunks
        #: with this one -- its snapshots, its source, theirs, itself --
        #: oldest first, so every scan visits them in one order (None
        #: until the first snapshot)
        self._family: Optional[list[ref]] = None
        self._cap = 0  # sectors covered by the occupancy map
        self._occ = bytearray()

    # -- argument checks ------------------------------------------------
    def _check_range(self, lbn: int, nsectors: int) -> None:
        if nsectors <= 0:
            raise ValueError(f"sector count must be positive, got {nsectors}")
        if lbn < 0 or lbn + nsectors > self.geometry.total_sectors:
            raise ValueError(
                f"sector range [{lbn}, {lbn + nsectors}) outside disk")

    def _check_write(self, data) -> int:
        size = self.geometry.sector_size
        if len(data) % size != 0:
            raise ValueError(
                f"write of {len(data)} bytes is not sector-aligned ({size})")
        return len(data) // size

    # -- capacity -------------------------------------------------------
    def _ensure_occ(self, end_sector: int) -> None:
        if end_sector <= self._cap:
            return
        chunk = GROW_CHUNK_SECTORS
        new_cap = max(self._cap * 2,
                      (end_sector + chunk - 1) // chunk * chunk)
        new_cap = min(new_cap, self.geometry.total_sectors)
        new_cap = max(new_cap, end_sector)
        occ = bytearray(new_cap)
        occ[:self._cap] = self._occ
        self._occ = occ
        self._cap = new_cap

    def _writable_chunk(self, index: int) -> bytearray:
        chunks = self._chunks
        chunk = chunks.get(index)
        if chunk is None:
            chunk = chunks[index] = bytearray(
                GROW_CHUNK_SECTORS * self.geometry.sector_size)
        elif index in self._shared:
            self._shared.discard(index)
            for member in self._family:
                store = member()
                if (store is not None and store is not self
                        and store._chunks.get(index) is chunk):
                    chunk = chunks[index] = bytearray(chunk)
                    break
        return chunk

    # -- the store API --------------------------------------------------
    def read(self, lbn: int, nsectors: int = 1) -> bytes:
        """Read *nsectors* starting at *lbn*; holes read as zeros."""
        self._check_range(lbn, nsectors)
        size = self.geometry.sector_size
        span = GROW_CHUNK_SECTORS
        index, offset = divmod(lbn, span)
        if offset + nsectors <= span:  # the common shape: one chunk
            chunk = self._chunks.get(index)
            if chunk is None:
                return self._zero if nsectors == 1 else bytes(
                    nsectors * size)
            return bytes(chunk[offset * size:(offset + nsectors) * size])
        parts = []
        remaining = nsectors
        while remaining:
            take = min(span - offset, remaining)
            chunk = self._chunks.get(index)
            parts.append(bytes(take * size) if chunk is None
                         else bytes(chunk[offset * size:
                                          (offset + take) * size]))
            remaining -= take
            index += 1
            offset = 0
        return b"".join(parts)

    def write(self, lbn: int, data: bytes) -> None:
        """Write *data* (a whole number of sectors) starting at *lbn*."""
        nsectors = self._check_write(data)
        self._check_range(lbn, nsectors)
        end = lbn + nsectors
        if end > self._cap:
            self._ensure_occ(end)
        size = self.geometry.sector_size
        span = GROW_CHUNK_SECTORS
        index, offset = divmod(lbn, span)
        if offset + nsectors <= span:  # one chunk: a single memcpy
            self._writable_chunk(index)[
                offset * size:(offset + nsectors) * size] = data
        else:
            done = 0
            remaining = nsectors
            while remaining:
                take = min(span - offset, remaining)
                self._writable_chunk(index)[
                    offset * size:(offset + take) * size] \
                    = data[done * size:(done + take) * size]
                done += take
                remaining -= take
                index += 1
                offset = 0
        if nsectors == 1:
            self._occ[lbn] = 1
        else:
            self._occ[lbn:end] = b"\x01" * nsectors
        self.sectors_written += nsectors

    def write_partial(self, lbn: int, data: bytes,
                      nsectors_applied: int) -> None:
        """Apply only the first *nsectors_applied* sectors of a write.

        Used by crash injection to model a request interrupted mid-transfer:
        sectors are laid down in LBN order, so a crash leaves a prefix.
        """
        prefix = data[:nsectors_applied * self.geometry.sector_size]
        if prefix:
            self.write(lbn, prefix)

    def snapshot(self) -> "SectorStore":
        """An independent copy, copy-on-write: no chunk bytes move now.

        Every current chunk becomes shared between source and clone;
        whichever side writes a shared chunk first while the other still
        holds it pays the one copy (a dropped snapshot leaves its source
        writing in place).  This is what keeps crash-image capture (one
        snapshot per explored point) O(touched chunks).
        """
        clone = SectorStore(self.geometry)
        clone.load_from(self)
        clone.sectors_written = self.sectors_written
        return clone

    def load_from(self, image: "SectorStore") -> None:
        """Replace content wholesale with *image*'s (counter untouched).

        ``Machine.adopt_image`` uses this to install an explored crash
        image into the live disk while keeping object identity.  Chunks
        are shared copy-on-write with *image*.
        """
        self._chunks = dict(image._chunks)
        shared = set(image._chunks)
        image._shared |= shared
        self._shared = shared
        family = image._family
        if family is None:
            family = image._family = [ref(image)]
        else:
            family[:] = [member for member in family if member() is not None]
        family.append(ref(self))
        self._family = family
        self._cap = image._cap
        self._occ = bytearray(image._occ)

    def digest(self) -> str:
        """Content fingerprint of the persistent state (hex).

        Two stores digest equal iff every sector reads back identical --
        all-zero sectors are canonicalized away, so a store that had zeros
        explicitly written equals one that never touched the sector.  The
        synthesis-vs-replay equivalence suite compares images this way.
        """
        h = hashlib.sha256()
        for lbn, data in self.iter_nonzero():
            h.update(lbn.to_bytes(8, "little"))
            h.update(data)
        return h.hexdigest()

    def iter_nonzero(self) -> Iterator[tuple[int, bytes]]:
        """``(lbn, data)`` for non-zero sectors, ascending by LBN."""
        size = self.geometry.sector_size
        span = GROW_CHUNK_SECTORS
        zero = self._zero
        chunks, occ = self._chunks, self._occ
        lbn = occ.find(1)
        while lbn >= 0:
            chunk = chunks.get(lbn // span)
            if chunk is not None:
                offset = (lbn % span) * size
                data = bytes(chunk[offset:offset + size])
                if data != zero:
                    yield lbn, data
            lbn = occ.find(1, lbn + 1)

    def __len__(self) -> int:
        """Number of distinct sectors ever written."""
        return self._occ.count(1)
