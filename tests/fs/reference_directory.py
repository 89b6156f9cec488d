"""The linear directory-block functions: the oracle ``DirIndex`` is held to.

Each call scans the block's records from the start with
``repro.fs.directory.iter_records``, so there is no state to drift: a
lookup returns the first live record of a name, an add takes the first
record with room (a second record of a live name included), and any call
whose scan reaches a corrupt record raises that record's
``CorruptDirectory``.  ``tests/fs/test_dir_index_equivalence.py`` holds the
index to these on generated blocks, and :class:`LinearBlock` runs a whole
machine on them in place of ``build_index``.
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.fs.directory import (
    _ENTRY_HDR_SIZE,
    _HDR,
    DIRBLKSIZ,
    MAX_NAME,
    CorruptDirectory,
    DirEntry,
    entry_bytes,
    iter_records,
)
from repro.fs.layout import FileType


def lookup(data: bytes | bytearray, name: str,
           base_offset: int = 0) -> tuple[Optional[DirEntry], int]:
    """Find *name*; returns (entry or None, records scanned) for CPU costing."""
    scanned = 0
    for scanned, record in enumerate(iter_records(data, base_offset), 1):
        if record[1] and record[3] == name:
            return DirEntry(*record), scanned
    return None, scanned


def add_entry(data: bytearray, name: str, ino: int,
              ftype: FileType) -> Optional[int]:
    """Insert an entry into free space; returns its offset or None if full."""
    name_raw = name.encode()
    if not 0 < len(name_raw) <= MAX_NAME:
        raise ValueError(f"bad name length {len(name_raw)}")
    need = entry_bytes(len(name_raw))
    for offset, live, reclen, held_name, _ftype in iter_records(data):
        used_here = entry_bytes(len(held_name.encode())) if live else 0
        if reclen - used_here < need:
            continue
        if live:
            # shrink the existing entry, append the new one in its slack
            struct.pack_into("<H", data, offset + 4, used_here)
            offset += used_here
        _HDR.pack_into(data, offset, ino, reclen - used_here, len(name_raw),
                       int(ftype) >> 12)
        data[offset + _ENTRY_HDR_SIZE:
             offset + _ENTRY_HDR_SIZE + len(name_raw)] = name_raw
        return offset
    return None


def remove_entry(data: bytearray, offset: int) -> int:
    """Delete the entry at *offset*; returns the inode number it held.

    If the entry begins a chunk its inode number is zeroed; otherwise the
    predecessor absorbs its record length (classic FFS compaction).
    """
    ino, reclen, _namelen, _ftype = _HDR.unpack_from(data, offset)
    if ino == 0:
        raise ValueError(f"no live entry at offset {offset}")
    chunk_at = offset - (offset % DIRBLKSIZ)
    if offset == chunk_at:
        struct.pack_into("<I", data, offset, 0)
        return ino
    # find the predecessor within the chunk
    scan = chunk_at
    while True:
        _ino, prev_reclen, _nl, _ft = _HDR.unpack_from(data, scan)
        if scan + prev_reclen == offset:
            struct.pack_into("<H", data, scan + 4, prev_reclen + reclen)
            return ino
        scan += prev_reclen
        if scan >= offset:
            raise CorruptDirectory("predecessor", offset)


def is_empty_dir(data: bytes | bytearray) -> bool:
    """True if the directory holds only '.' and '..'."""
    return all(not ino or name in (".", "..")
               for _offset, ino, _reclen, name, _ftype in iter_records(data))


class LinearBlock:
    """A directory block with ``DirIndex``'s interface that scans on every
    call: monkeypatched over ``build_index``, it runs the file system on
    the linear functions above."""

    def __init__(self, data: bytearray):
        self.data = data

    def find(self, name, base_offset=0):
        return lookup(self.data, name, base_offset)

    def add(self, name, ino, ftype):
        return add_entry(self.data, name, ino, ftype)

    def remove(self, offset):
        return remove_entry(self.data, offset)

    def empty(self):
        return is_empty_dir(self.data)

    def scan(self):
        return iter_records(self.data)
