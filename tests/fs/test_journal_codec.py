"""The journal's on-disk codec and recovery scan, bytes-in/bytes-out.

A fake frag store (a plain dict) plays the disk; every property the
recovery path depends on is pinned here: header versioning, descriptor
entry packing, the commit checksum refusing torn records, newest-wins
overlay composition, revokes, the end-of-log skip, the open (uncommitted)
head record's images, and replay's retire-the-log header rewrite.
"""

import pytest

from repro.fs import journal
from repro.fs.layout import FSGeometry, with_journal

GEO = with_journal(FSGeometry(ipg=256, dfrags_per_cg=2048, ncg=2))
FRAG = GEO.frag_size
LOG = GEO.journal_frags - 1
BASE = GEO.journal_start + 1


class FragStore:
    """daddr -> frag bytes, zero-filled where never written."""

    def __init__(self):
        self.frags = {}

    def read(self, daddr, nfrags):
        return b"".join(self.frags.get(daddr + i, bytes(FRAG))
                        for i in range(nfrags))

    def write(self, daddr, data):
        assert len(data) % FRAG == 0
        for i in range(len(data) // FRAG):
            self.frags[daddr + i] = bytes(data[i * FRAG:(i + 1) * FRAG])


def frag_of(byte, tag=0):
    return bytes([byte, tag]) * (FRAG // 2)


def write_txn(store, seq, pos, entries, payload=b""):
    """Lay down one complete record; returns the next (seq, pos)."""
    desc = journal.descriptor_bytes(FRAG, seq, entries)
    store.write(BASE + pos, desc)
    if payload:
        store.write(BASE + pos + 1, payload)
    extent = journal.record_extent(entries)
    store.write(BASE + pos + extent - 1,
                journal.commit_bytes(FRAG, seq,
                                     journal.txn_checksum(desc, payload)))
    pos += extent
    return seq + 1, 0 if pos >= LOG else pos


def fresh(tail_seq=1, tail_pos=0):
    store = FragStore()
    store.write(GEO.journal_start,
                journal.header_bytes(FRAG, tail_seq, tail_pos))
    return store


# ----------------------------------------------------------------------
# codec
# ----------------------------------------------------------------------
def test_header_roundtrip_and_rejection():
    assert journal.parse_header(journal.header_bytes(FRAG, 7, 42)) == (7, 42)
    assert journal.parse_header(bytes(FRAG)) is None
    assert journal.parse_header(b"\x01") is None
    # wrong version is unreadable, not misread
    bad = bytearray(journal.header_bytes(FRAG, 7, 42))
    bad[4] = 0xEE
    assert journal.parse_header(bytes(bad)) is None


def test_descriptor_roundtrip():
    entries = [journal.Entry(journal.IMAGE, 123, 2),
               journal.Entry(journal.REVOKE, 900, 8)]
    raw = journal.descriptor_bytes(FRAG, 5, entries)
    assert len(raw) == FRAG
    assert journal.parse_descriptor(raw, expect_seq=5) == entries
    # a stale record from an earlier lap never parses as the current one
    assert journal.parse_descriptor(raw, expect_seq=6) is None


def test_descriptor_rejects_overfull_and_bad_runs():
    cap = journal.max_entries(FRAG)
    too_many = [journal.Entry(journal.IMAGE, i, 1) for i in range(cap + 1)]
    with pytest.raises(ValueError):
        journal.descriptor_bytes(FRAG, 1, too_many)
    with pytest.raises(ValueError):
        journal.descriptor_bytes(FRAG, 1, [journal.Entry(journal.IMAGE,
                                                         1, 0)])


def test_commit_checksum_covers_descriptor_and_payload():
    desc = journal.descriptor_bytes(FRAG, 3,
                                    [journal.Entry(journal.IMAGE, 10, 1)])
    payload = frag_of(0xAB)
    checksum = journal.txn_checksum(desc, payload)
    commit = journal.commit_bytes(FRAG, 3, checksum)
    assert journal.commit_valid(commit, 3, checksum)
    assert not journal.commit_valid(commit, 4, checksum)
    assert not journal.commit_valid(commit, 3, checksum ^ 1)
    assert not journal.commit_valid(bytes(FRAG), 3, checksum)


def test_record_extent():
    entries = [journal.Entry(journal.IMAGE, 10, 3),
               journal.Entry(journal.REVOKE, 50, 99),
               journal.Entry(journal.IMAGE, 20, 1)]
    # descriptor + 4 image frags + commit; revokes take no payload room
    assert journal.record_extent(entries) == 6


# ----------------------------------------------------------------------
# scan
# ----------------------------------------------------------------------
def test_scan_empty_log():
    store = fresh()
    result = journal.scan_journal(store.read, GEO)
    assert result.overlay == {}
    assert result.transactions == []
    assert (result.head_seq, result.head_pos) == (1, 0)


def test_scan_applies_committed_transactions_newest_wins():
    store = fresh()
    seq, pos = 1, 0
    seq, pos = write_txn(store, seq, pos,
                         [journal.Entry(journal.IMAGE, 100, 1)],
                         frag_of(0x11))
    seq, pos = write_txn(store, seq, pos,
                         [journal.Entry(journal.IMAGE, 100, 1),
                          journal.Entry(journal.IMAGE, 200, 1)],
                         frag_of(0x22) + frag_of(0x33))
    result = journal.scan_journal(store.read, GEO)
    assert [t.seq for t in result.transactions] == [1, 2]
    assert result.overlay == {100: frag_of(0x22), 200: frag_of(0x33)}
    assert (result.head_seq, result.head_pos) == (seq, pos)


def test_scan_stops_at_torn_commit():
    store = fresh()
    seq, pos = write_txn(store, 1, 0,
                         [journal.Entry(journal.IMAGE, 100, 1)],
                         frag_of(0x11))
    # second record: descriptor + payload durable, commit torn (zeroes)
    desc = journal.descriptor_bytes(FRAG, seq,
                                    [journal.Entry(journal.IMAGE, 200, 1)])
    store.write(BASE + pos, desc)
    store.write(BASE + pos + 1, frag_of(0x22))
    result = journal.scan_journal(store.read, GEO)
    assert result.overlay == {100: frag_of(0x11)}
    assert result.head_seq == seq
    # ...but the torn record's images are reported open, with their logged
    # bytes (the in-flight transaction the checkpoint-order rule watches)
    assert result.open_images == {200: frag_of(0x22)}


def write_open(store, seq, pos, entries, payload=b""):
    """Lay down a record's descriptor and payload, but no commit."""
    store.write(BASE + pos, journal.descriptor_bytes(FRAG, seq, entries))
    if payload:
        store.write(BASE + pos + 1, payload)


def test_open_record_at_position_zero_after_a_wrap():
    """The head record did not fit before the log end, so the writer put
    it at 0: the scan finds it open there."""
    store = fresh(tail_seq=1, tail_pos=LOG - 5)
    seq, pos = write_txn(store, 1, LOG - 5,
                         [journal.Entry(journal.IMAGE, 100, 1)],
                         frag_of(0x11))
    assert (seq, pos) == (2, LOG - 2)
    # extent 4 > the 2 frags left
    write_open(store, seq, 0, [journal.Entry(journal.IMAGE, 200, 2)],
               frag_of(0x21) + frag_of(0x22))
    result = journal.scan_journal(store.read, GEO)
    assert result.overlay == {100: frag_of(0x11)}
    assert (result.head_seq, result.head_pos) == (2, LOG - 2)
    assert result.open_images == {200: frag_of(0x21), 201: frag_of(0x22)}


def test_open_head_descriptor_crossing_the_log_end_falls_back_to_zero():
    """A descriptor at the head that parses but whose record would cross
    the log end is not the head record: the one at 0 is."""
    store = fresh(tail_seq=1, tail_pos=LOG - 5)
    seq, pos = write_txn(store, 1, LOG - 5,
                         [journal.Entry(journal.IMAGE, 100, 1)],
                         frag_of(0x11))
    write_open(store, seq, pos, [journal.Entry(journal.IMAGE, 300, 3)])
    write_open(store, seq, 0, [journal.Entry(journal.IMAGE, 400, 1)],
               frag_of(0x44))
    result = journal.scan_journal(store.read, GEO)
    assert [t.seq for t in result.transactions] == [1]
    assert (result.head_seq, result.head_pos) == (2, LOG - 2)
    assert result.open_images == {400: frag_of(0x44)}


def test_open_record_mixing_a_revoke_and_a_two_fragment_image():
    """An open record's revoke takes no payload room and drops nothing:
    only a committed revoke retracts an image."""
    store = fresh()
    seq, pos = write_txn(store, 1, 0,
                         [journal.Entry(journal.IMAGE, 500, 1)],
                         frag_of(0x50))
    write_open(store, seq, pos,
               [journal.Entry(journal.REVOKE, 500, 4),
                journal.Entry(journal.IMAGE, 200, 2),
                journal.Entry(journal.IMAGE, 600, 1)],
               frag_of(0x21) + frag_of(0x22) + frag_of(0x60))
    result = journal.scan_journal(store.read, GEO)
    assert result.overlay == {500: frag_of(0x50)}
    assert (result.head_seq, result.head_pos) == (seq, pos)
    assert result.open_images == {200: frag_of(0x21), 201: frag_of(0x22),
                                  600: frag_of(0x60)}


def test_scan_corrupt_payload_invalidates_commit():
    store = fresh()
    _seq, _pos = write_txn(store, 1, 0,
                           [journal.Entry(journal.IMAGE, 100, 1)],
                           frag_of(0x11))
    store.write(BASE + 1, frag_of(0x99))  # payload flipped after commit
    result = journal.scan_journal(store.read, GEO)
    assert result.overlay == {}
    assert result.transactions == []


def test_revoke_drops_earlier_images():
    store = fresh()
    seq, pos = write_txn(store, 1, 0,
                         [journal.Entry(journal.IMAGE, 100, 1),
                          journal.Entry(journal.IMAGE, 101, 1)],
                         frag_of(0x11) + frag_of(0x12))
    seq, pos = write_txn(store, seq, pos,
                         [journal.Entry(journal.REVOKE, 100, 1)])
    result = journal.scan_journal(store.read, GEO)
    assert result.overlay == {101: frag_of(0x12)}


def test_wrap_skips_to_position_zero():
    """A record that would cross the log end starts at 0 instead, and the
    scanner follows it there."""
    store = fresh(tail_seq=1, tail_pos=LOG - 2)
    # extent 3 > the 2 frags left: the writer skips to 0
    seq, pos = write_txn(store, 1, 0,
                         [journal.Entry(journal.IMAGE, 300, 1)],
                         frag_of(0x44))
    assert (seq, pos) == (2, 3)
    result = journal.scan_journal(store.read, GEO)
    assert result.overlay == {300: frag_of(0x44)}
    assert (result.head_seq, result.head_pos) == (2, 3)


def test_scan_without_journal_region_is_empty():
    plain = FSGeometry(ipg=256, dfrags_per_cg=2048, ncg=2)
    result = journal.scan_journal(FragStore().read, plain)
    assert result.overlay == {} and result.transactions == []


def test_scan_survives_garbage_header():
    store = FragStore()
    store.write(GEO.journal_start, frag_of(0xFF))
    result = journal.scan_journal(store.read, GEO)
    assert result.overlay == {}


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------
def test_replay_applies_overlay_and_retires_log():
    store = fresh()
    write_txn(store, 1, 0, [journal.Entry(journal.IMAGE, 100, 2)],
              frag_of(0x55) + frag_of(0x56))
    journal.replay_into(journal.scan_journal(store.read, GEO), store.write,
                        GEO)
    assert store.read(100, 1) == frag_of(0x55)
    assert store.read(101, 1) == frag_of(0x56)
    # the log is retired: a second scan finds nothing to replay
    again = journal.scan_journal(store.read, GEO)
    assert again.overlay == {} and again.transactions == []
    # and replay is idempotent on the retired image (the header's tail
    # sequence advances -- seqs never repeat -- but no frag is rewritten)
    before = dict(store.frags)
    second = journal.scan_journal(store.read, GEO)
    journal.replay_into(second, store.write, GEO)
    assert second.overlay == {}
    changed = {daddr for daddr, data in store.frags.items()
               if before.get(daddr) != data}
    assert changed <= {GEO.journal_start}
