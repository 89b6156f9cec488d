"""On-disk write-ahead metadata journal: codec, scan, and replay.

The journal lives in the fragment run ``[journal_start, journal_start +
journal_frags)`` reserved by :class:`~repro.fs.layout.FSGeometry`.  The
first fragment is the **header** (durable tail of the circular log); the
rest is the **log**, addressed by position ``p`` at fragment
``journal_start + 1 + p``.

One transaction is a contiguous record::

    descriptor frag | image payload frags ... | commit frag

* The descriptor carries a monotonically increasing sequence number and a
  list of entries: ``IMAGE`` (a metadata block image follows in the
  payload, destined for home fragment ``daddr``) or ``REVOKE`` (the run
  ``daddr..daddr+nfrags`` was freed -- images of it from this or any
  earlier transaction must not be replayed).
* The commit frag repeats the sequence number and a CRC-32 over the
  descriptor and payload bytes, so a torn or reordered record can never
  masquerade as committed.
* A record that would cross the log end skips to position 0 (the scanner
  mirrors the skip); sequence numbers never repeat, so stale records from
  an earlier lap can never be mistaken for the current one.

Recovery is a single forward scan from the durable tail: every
checksum-valid transaction in unbroken sequence order contributes its
images to an *overlay* (newest image of a fragment wins, revoked
fragments drop out); the crash image plus the overlay is the recovered
state.  ``repro.integrity.fsck`` checks that recovered state,
``repro.integrity.monitor`` judges it at every commit, and
:class:`repro.ordering.journal.JournalScheme` writes it.

Everything here is pure bytes-in/bytes-out: callers supply a
``read_frag(daddr, nfrags) -> bytes`` function, so the same scan serves
the live scheme (sector store), fsck and the monitor (images synthesized
from the media log).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional

from repro.fs.layout import FSGeometry

J_HEADER_MAGIC = 0x4A524E48  # "JRNH"
J_DESC_MAGIC = 0x4A524E44    # "JRND"
J_COMMIT_MAGIC = 0x4A524E43  # "JRNC"

_HEADER_FMT = "<IIII"        # magic, version, tail_seq, tail_pos
_DESC_FMT = "<III"           # magic, seq, nentries
_ENTRY_FMT = "<II"           # daddr, kind << 24 | nfrags
_COMMIT_FMT = "<III"         # magic, seq, checksum
_VERSION = 1

IMAGE = 1
REVOKE = 2

#: entries one descriptor fragment can carry
def max_entries(frag_size: int) -> int:
    return (frag_size - struct.calcsize(_DESC_FMT)) // struct.calcsize(
        _ENTRY_FMT)


@dataclass(frozen=True)
class Entry:
    """One descriptor entry: an image destined for home, or a revoked run."""

    kind: int
    daddr: int
    nfrags: int


@dataclass
class Transaction:
    """One record as a scan read it.  ``entries`` is None when ``desc``
    does not parse as record *seq* or the record would cross the log end
    (the writer skips to 0 instead); otherwise ``body`` is its payload and
    commit, read as one, ``images`` maps each home fragment to its logged
    bytes (a later image of a fragment wins) and ``committed`` says
    whether the commit checks."""

    seq: int
    pos: int
    entries: list[Entry] | None
    extent: int
    desc: bytes = field(default=b"", repr=False)
    body: bytes | None = field(default=None, repr=False)
    committed: bool = False
    images: dict[int, bytes] = field(default_factory=dict, repr=False)


@dataclass
class ScanResult:
    """What a forward scan of the journal recovered."""

    #: recovered state: home fragment daddr -> committed image bytes
    overlay: dict[int, bytes] = field(default_factory=dict)
    #: home fragment -> logged bytes of the valid but *uncommitted*
    #: record at the head (the transaction in flight when the image was
    #: taken)
    open_images: dict[int, bytes] = field(default_factory=dict)
    #: committed transactions applied, in sequence order
    transactions: list[Transaction] = field(default_factory=list)
    #: where the next record would begin (sequence, log position)
    head_seq: int = 0
    head_pos: int = 0
    #: (log position, sequence) -> each record read, for a later scan
    records: dict[tuple[int, int], Transaction] = field(
        default_factory=dict, repr=False, compare=False)


# ----------------------------------------------------------------------
# codec
# ----------------------------------------------------------------------
def header_bytes(frag_size: int, tail_seq: int, tail_pos: int) -> bytes:
    raw = struct.pack(_HEADER_FMT, J_HEADER_MAGIC, _VERSION, tail_seq,
                      tail_pos)
    return raw + bytes(frag_size - len(raw))


def parse_header(raw: bytes) -> Optional[tuple[int, int]]:
    """(tail_seq, tail_pos), or None if the header is unreadable."""
    try:
        magic, version, tail_seq, tail_pos = struct.unpack_from(
            _HEADER_FMT, raw)
    except struct.error:
        return None
    if magic != J_HEADER_MAGIC or version != _VERSION:
        return None
    return tail_seq, tail_pos


def descriptor_bytes(frag_size: int, seq: int,
                     entries: Iterable[Entry]) -> bytes:
    entries = list(entries)
    if len(entries) > max_entries(frag_size):
        raise ValueError(f"{len(entries)} entries exceed one descriptor")
    raw = bytearray(struct.pack(_DESC_FMT, J_DESC_MAGIC, seq, len(entries)))
    for entry in entries:
        if not (1 <= entry.nfrags < (1 << 24)):
            raise ValueError(f"bad entry run length {entry.nfrags}")
        raw += struct.pack(_ENTRY_FMT, entry.daddr,
                           (entry.kind << 24) | entry.nfrags)
    return bytes(raw) + bytes(frag_size - len(raw))


def parse_descriptor(raw: bytes, expect_seq: int) -> Optional[list[Entry]]:
    """Entries of a descriptor frag carrying *expect_seq*, else None."""
    try:
        magic, seq, nentries = struct.unpack_from(_DESC_FMT, raw)
    except struct.error:
        return None
    if magic != J_DESC_MAGIC or seq != expect_seq:
        return None
    if nentries > max_entries(len(raw)):
        return None
    entries = []
    at = struct.calcsize(_DESC_FMT)
    for _ in range(nentries):
        daddr, word = struct.unpack_from(_ENTRY_FMT, raw, at)
        at += struct.calcsize(_ENTRY_FMT)
        kind = word >> 24
        nfrags = word & 0xFFFFFF
        if kind not in (IMAGE, REVOKE) or nfrags == 0:
            return None
        entries.append(Entry(kind, daddr, nfrags))
    return entries


def txn_checksum(desc_raw: bytes, payload: bytes) -> int:
    return zlib.crc32(payload, zlib.crc32(desc_raw))


def commit_bytes(frag_size: int, seq: int, checksum: int) -> bytes:
    raw = struct.pack(_COMMIT_FMT, J_COMMIT_MAGIC, seq, checksum)
    return raw + bytes(frag_size - len(raw))


def commit_valid(raw: bytes, expect_seq: int, checksum: int) -> bool:
    try:
        magic, seq, stored = struct.unpack_from(_COMMIT_FMT, raw)
    except struct.error:
        return False
    return (magic == J_COMMIT_MAGIC and seq == expect_seq
            and stored == checksum)


def record_extent(entries: Iterable[Entry]) -> int:
    """Fragments one record occupies: descriptor + images + commit."""
    return 2 + sum(e.nfrags for e in entries if e.kind == IMAGE)


# ----------------------------------------------------------------------
# scan / replay
# ----------------------------------------------------------------------
def scan_journal(read_frag: Callable[[int, int], bytes],
                 geometry: FSGeometry,
                 previous: ScanResult | None = None) -> ScanResult:
    """Forward-scan the journal; returns the recovered overlay.

    Defensive throughout: anything unparseable simply ends the committed
    region (a crash can leave arbitrary torn bytes at the head).

    *previous* is a scan of an earlier image of the same log: a record it
    read at the same position and sequence number that reads the same
    bytes now is taken from it (entries, images, commit verdict), not
    parsed again.
    """
    result = ScanResult()
    if not geometry.journal_frags:
        return result
    log_frags = geometry.journal_frags - 1
    base = geometry.journal_start + 1
    header = parse_header(read_frag(geometry.journal_start, 1))
    if header is None:
        return result
    seq, pos = header
    if not (0 <= pos < log_frags):
        return result
    frag_size = geometry.frag_size
    overlay, records = result.overlay, result.records
    known = previous.records if previous is not None else {}
    while True:
        # the record *seq* starts at *pos*, or at 0 when it would not have
        # fit there; the first that parses without a valid commit is the
        # head transaction, in flight when the image was taken
        opened = None
        for at in ((pos,) if pos == 0 else (pos, 0)):
            desc = read_frag(base + at, 1)
            txn = known.get((at, seq))
            if txn is None or txn.desc != desc:
                entries = parse_descriptor(desc, seq)
                extent = record_extent(entries) if entries is not None else 0
                if at + extent > log_frags:
                    entries = None  # the writer would have skipped to 0
                txn = Transaction(seq, at, entries, extent, desc)
            if txn.entries is not None:
                body = read_frag(base + at + 1, txn.extent - 1)
                if txn.body != body:
                    txn = _checked(txn, body, frag_size)
            records[at, seq] = txn
            if txn.committed:
                break
            if opened is None and txn.entries is not None:
                opened = txn
        else:
            if opened is not None:
                result.open_images = opened.images
            break
        for entry in txn.entries:
            if entry.kind == REVOKE:
                for frag in range(entry.daddr, entry.daddr + entry.nfrags):
                    overlay.pop(frag, None)
        overlay.update(txn.images)
        result.transactions.append(txn)
        pos = txn.pos + txn.extent
        if pos >= log_frags:
            pos = 0
        seq += 1
    result.head_seq = seq
    result.head_pos = pos
    return result


def _checked(txn: Transaction, body: bytes, frag_size: int) -> Transaction:
    """*txn* read with *body* (its payload and commit fragments): its
    images and whether the commit checks."""
    payload = body[:-frag_size]
    images = {}
    at = 0
    for entry in txn.entries:
        if entry.kind == IMAGE:
            for daddr in range(entry.daddr, entry.daddr + entry.nfrags):
                images[daddr] = payload[at:at + frag_size]
                at += frag_size
    return replace(txn, body=body, images=images, committed=commit_valid(
        body[-frag_size:], txn.seq, txn_checksum(txn.desc, payload)))


def replay_into(result: ScanResult,
                write_frag: Callable[[int, bytes], None],
                geometry: FSGeometry) -> None:
    """Physically apply *result*, the :func:`scan_journal` of the log, and
    retire the whole log.

    The header is rewritten with the tail *past* the head sequence, so a
    later scan (or a remount) finds an empty log -- replay is a one-shot.
    """
    for frag in sorted(result.overlay):
        write_frag(frag, result.overlay[frag])
    write_frag(geometry.journal_start,
               header_bytes(geometry.frag_size, result.head_seq + 1,
                            result.head_pos))
