"""FFS-style directory blocks.

Entries are variable length -- ``(ino u32, reclen u16, namelen u8, type u8,
name …pad4)`` -- packed into ``DIRBLKSIZ`` (512-byte) chunks that entries
never cross, so a single sector write updates a directory chunk atomically
(the property footnote 1 of the paper relies on).  An entry is deleted either
by zeroing its inode number (if first in its chunk) or by folding its record
length into its predecessor.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.fs.layout import FileType

DIRBLKSIZ = 512
_HDR = struct.Struct("<IHBB")
_ENTRY_HDR_SIZE = _HDR.size
MAX_NAME = 255
#: on-disk type byte (mode >> 12) -> FileType; any other byte is corruption
_FTYPE_OF = {int(ftype) >> 12: ftype for ftype in FileType}


def entry_bytes(namelen: int) -> int:
    """Space one entry needs: header + name padded to 4 bytes."""
    return _ENTRY_HDR_SIZE + ((namelen + 3) & ~3)


@dataclass
class DirEntry:
    """A decoded directory entry at ``offset`` within its buffer."""

    offset: int
    ino: int
    reclen: int
    name: str
    ftype: FileType

    @property
    def live(self) -> bool:
        return self.ino != 0


def format_chunk(entries: list[tuple[int, str, FileType]]) -> bytes:
    """Build one DIRBLKSIZ chunk holding *entries*, last entry padded out."""
    out = bytearray()
    for position, (ino, name, ftype) in enumerate(entries):
        name_raw = name.encode()
        need = entry_bytes(len(name_raw))
        if position == len(entries) - 1:
            reclen = DIRBLKSIZ - len(out)
        else:
            reclen = need
        if reclen < need or len(out) + reclen > DIRBLKSIZ:
            raise ValueError("entries do not fit in one chunk")
        out += _HDR.pack(ino, reclen, len(name_raw), int(ftype) >> 12)
        out += name_raw
        out += bytes(reclen - _ENTRY_HDR_SIZE - len(name_raw))
    out += bytes(DIRBLKSIZ - len(out))
    return bytes(out)


def empty_chunk() -> bytes:
    """A chunk holding a single empty entry spanning the whole chunk."""
    return format_chunk([(0, "", FileType.NONE)])


#: where :func:`new_dir_contents` puts '..': right after '.'
DOTDOT_OFFSET = entry_bytes(len("."))


def new_dir_contents(self_ino: int, parent_ino: int) -> bytes:
    """The first chunk of a fresh directory: '.' and '..'."""
    return format_chunk([(self_ino, ".", FileType.DIRECTORY),
                         (parent_ino, "..", FileType.DIRECTORY)])


def iter_records(data: bytes | bytearray, base_offset: int = 0
                 ) -> Iterator[tuple[int, int, int, str, FileType]]:
    """Decode every record (live or free) of *data*, in scan order, as a raw
    ``(offset, ino, reclen, name, ftype)`` tuple: the one record decoder.

    *data* must be a whole number of chunks; *base_offset* shifts reported
    offsets (useful when data is one block of a larger directory).
    """
    if len(data) % DIRBLKSIZ != 0:
        raise ValueError("directory data is not chunk-aligned")
    unpack = _HDR.unpack_from
    for chunk_at in range(0, len(data), DIRBLKSIZ):
        offset = chunk_at
        chunk_end = chunk_at + DIRBLKSIZ
        while offset < chunk_end:
            ino, reclen, namelen, type_byte = unpack(data, offset)
            if reclen < _ENTRY_HDR_SIZE or offset + reclen > chunk_end:
                bad = f"reclen {reclen}"
            elif namelen > reclen - _ENTRY_HDR_SIZE:
                bad = f"namelen {namelen}"
            elif ino and type_byte not in _FTYPE_OF:
                bad = f"type {type_byte}"
            else:
                name_at = offset + _ENTRY_HDR_SIZE
                yield (base_offset + offset, ino, reclen,
                       bytes(data[name_at:name_at + namelen]).decode(
                           errors="replace"),
                       _FTYPE_OF[type_byte] if ino else FileType.NONE)
                offset += reclen
                continue
            raise CorruptDirectory(bad, base_offset + offset)


@dataclass
class DirIndex:
    """Live host-side mirror of one directory block, kept on its cache buffer.

    Built by one linear parse (:func:`build_index`) and then *maintained*:
    :meth:`add` and :meth:`remove` write the block's bytes and this mirror
    together, so a cached block is decoded once per read from disk, not
    once per operation.  It is the file system's one way to read or edit a
    directory block, and every answer is a linear scan's answer on the same
    bytes (``tests/fs/reference_directory.py`` holds the scan): :meth:`find`
    reports the records the scan visits (the simulated CPU is charged for
    them), :meth:`add` takes the slot the scan takes, a second record of a
    live name included, and an operation whose scan would reach the first
    corrupt record raises :attr:`bad` there.
    """

    #: the mirrored bytes (the cache buffer's ``data``)
    data: bytes | bytearray
    #: live name -> offset of its first live record (the one a scan finds)
    by_name: dict[str, int]
    #: every record offset (live and free) before :attr:`bad`, ascending
    offsets: list[int]
    #: record offset -> [ino, reclen, name, ftype], as iter_records reports
    records: dict[int, list]
    #: record offset -> bytes an insertion may take there, where > 0
    slack: dict[int, int]
    #: name -> offsets of its later live records, ascending, for a name
    #: live more than once (a rename racing a create writes one)
    shadowed: dict[str, list[int]]
    #: what iter_records raises at the first corrupt record; nothing from
    #: there on is indexed
    bad: Optional[CorruptDirectory] = field(default=None, compare=False)

    def _raise_bad(self, base_offset: int = 0) -> None:
        """What a scan that runs past every indexed record raises."""
        what, offset = self.bad.args
        raise CorruptDirectory(what, base_offset + offset)

    def scan(self) -> Iterator[tuple[int, int, int, str, FileType]]:
        """What :func:`iter_records` yields for the mirrored bytes."""
        for offset in self.offsets:
            yield (offset, *self.records[offset])
        if self.bad is not None:
            self._raise_bad()

    def find(self, name: str,
             base_offset: int = 0) -> tuple[Optional[DirEntry], int]:
        """The first live record of *name* (or None) and the records a scan
        for it visits, for CPU costing."""
        offset = self.by_name.get(name)
        if offset is None:
            if self.bad is not None:
                self._raise_bad(base_offset)
            return None, len(self.offsets)
        return (DirEntry(base_offset + offset, *self.records[offset]),
                bisect_left(self.offsets, offset) + 1)

    def empty(self) -> bool:
        """True if the block holds no live name but '.' and '..'."""
        empty = self.by_name.keys() <= {".", ".."}
        if empty and self.bad is not None:
            self._raise_bad()
        return empty

    def _note_slack(self, offset: int) -> None:
        ino, reclen, name, _ftype = self.records[offset]
        slack = reclen - entry_bytes(len(name.encode())) if ino else reclen
        if slack > 0:
            self.slack[offset] = slack
        else:
            self.slack.pop(offset, None)

    def add(self, name: str, ino: int, ftype: FileType) -> Optional[int]:
        """Insert an entry into the first record with room; returns its
        offset, or None if the block is full."""
        name_raw = name.encode()
        if not 0 < len(name_raw) <= MAX_NAME or not ino:
            raise ValueError(f"cannot enter ino {ino} as {name!r}")
        need = entry_bytes(len(name_raw))
        offset = min((at for at, slack in self.slack.items() if slack >= need),
                     default=None)
        if offset is None:
            if self.bad is not None:
                self._raise_bad()
            return None
        host = self.records[offset]
        reclen = host[1]
        if host[0]:
            # shrink the existing entry, append the new one in its slack
            host[1] -= self.slack.pop(offset)
            struct.pack_into("<H", self.data, offset + 4, host[1])
            offset, reclen = offset + host[1], reclen - host[1]
            insort(self.offsets, offset)
        _HDR.pack_into(self.data, offset, ino, reclen, len(name_raw),
                       int(ftype) >> 12)
        name_at = offset + _ENTRY_HDR_SIZE
        self.data[name_at:name_at + len(name_raw)] = name_raw
        self.records[offset] = [ino, reclen, name, ftype]
        if name in self.by_name:    # a second live record of one name
            first, later = sorted((self.by_name[name], offset))
            insort(self.shadowed.setdefault(name, []), later)
            self.by_name[name] = first
        else:
            self.by_name[name] = offset
        self._note_slack(offset)
        return offset

    def remove(self, offset: int) -> int:
        """Delete the live entry at *offset*; returns the inode number it
        held.  If the entry begins a chunk its inode number is zeroed;
        otherwise the predecessor absorbs its record length (classic FFS
        compaction)."""
        record = self.records.get(offset, [0])
        if not record[0]:
            raise ValueError(f"no live entry at offset {offset}")
        ino, reclen, name, _ftype = record
        if name not in self.shadowed:
            del self.by_name[name]
        else:
            later = self.shadowed[name]
            if offset in later:
                later.remove(offset)
            else:
                self.by_name[name] = later.pop(0)
            if not later:
                del self.shadowed[name]
        if offset % DIRBLKSIZ == 0:
            struct.pack_into("<I", self.data, offset, 0)
            record[0], record[3] = 0, FileType.NONE
        else:
            at = bisect_left(self.offsets, offset)
            del self.offsets[at], self.records[offset]
            self.slack.pop(offset, None)
            offset = self.offsets[at - 1]
            pred = self.records[offset]
            pred[1] += reclen
            struct.pack_into("<H", self.data, offset + 4, pred[1])
        self._note_slack(offset)
        return ino


def build_index(data: bytes | bytearray) -> DirIndex:
    """Index the records of *data* before the first corrupt one, keeping
    what :func:`iter_records` raises there as :attr:`DirIndex.bad`."""
    index = DirIndex(data, {}, [], {}, {}, {})
    try:
        for offset, *record in iter_records(data):
            index.offsets.append(offset)
            index.records[offset] = record
            if record[0]:
                first = index.by_name.setdefault(record[2], offset)
                if first != offset:
                    index.shadowed.setdefault(record[2], []).append(offset)
            index._note_slack(offset)
    except CorruptDirectory as bad:
        # no traceback: it would hold this frame, and so the index, alive
        index.bad = bad.with_traceback(None)
    return index


class CorruptDirectory(Exception):
    """Directory bytes violate the entry packing invariants; ``args`` are
    what is bad and the offset of the record it is bad in."""

    def __str__(self) -> str:
        return "bad {} at offset {}".format(*self.args)
