"""The auditor against one-shot fsck: same report, less work.

:class:`repro.integrity.fsck.Auditor` returns the previous report when
every range the previous audit read holds the same bytes, and otherwise
reuses the previous audit's per-record results, keyed on the bytes each
was computed from, and its findings, keyed on what each one says.  Its
contract is that nothing a report says may differ from ``fsck`` on the
same image:

* at every point of time-sorted crash sweeps, fed the synthesizer's
  evolving store and the ranges it says changed exactly as the explorer
  feeds them (tier-1 runs a budget of every media-resident scheme and
  shim; ``-m slow`` every scheme, every workload, every point);
* after edits made *in place* in a store it has already audited -- the
  store object and its chunks are the same, only the bytes moved -- of
  every kind of range it reads, a reused report included, and after any
  run of random record edits, told which ranges each run rewrote;
* when the superblock describes another layout;

and it keeps only the last audit's results.  A journaled image whose log
bytes did not change is recovered without parsing a log record again.
"""

import functools
import struct
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.fs import journal
from repro.fs.alloc import CgView
from repro.fs.layout import INODE_SIZE, ROOT_INO, FileType
from repro.fs.superblock import Superblock
from repro.harness.recording import record_run
from repro.integrity import explorer
from repro.integrity.explorer import (
    WORKLOADS,
    build_machine,
    build_workload,
    enumerate_crash_points,
)
from repro.integrity.fsck import Auditor, fsck, scan_log
from repro.integrity.medialog import ImageSynthesizer
from tests.conftest import SMALL_GEOMETRY, iter_entries, make_machine, run_user
from tests.integrity.test_fsck import build_populated_machine, poke
from tests.integrity.test_fsck_equivalence import SWEEP_SCHEMES


def _seen(report):
    # the claimed bits too: repair reads them off the sweep's reports
    return report.findings, report.inodes, report.references, report.claimed


def assert_auditor_equals_fsck(scheme, workload, ops=None, max_points=None,
                               fault_profile=None):
    machine = build_machine(scheme, fault_profile=fault_profile,
                            fault_seed=3)
    recorded = record_run(machine, build_workload(machine, workload, 0, ops),
                          capture_media=True)
    points = enumerate_crash_points(recorded, samples_per_write=2,
                                    max_points=max_points)
    geometry = machine.config.fs_geometry
    synthesizer = ImageSynthesizer(recorded.base_image, recorded.media_log)
    auditor = Auditor(geometry)
    found = 0
    for point in sorted(points, key=lambda p: (p.time, p.index)):
        image = synthesizer.image_at(point.time)  # the shared store
        report = auditor.audit(image, synthesizer.changed)
        assert _seen(report) == _seen(fsck(image, geometry)), \
            f"{scheme}/{workload}: point #{point.index} ({point.label})"
        found += bool(report.findings)
    assert len(points) > 20
    return found


@pytest.mark.parametrize("workload,ops", [("microbench", 6), ("reuse", 4)])
@pytest.mark.parametrize("scheme", SWEEP_SCHEMES)
def test_auditor_reports_what_fsck_reports_at_every_point(scheme, workload,
                                                          ops):
    found = assert_auditor_equals_fsck(scheme, workload, ops, max_points=40)
    assert found, "a sweep with no finding at all compares nothing"


@pytest.mark.slow
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("scheme,fault_profile",
                         [(scheme, None) for scheme in sorted(explorer.SCHEMES)]
                         + [("softupdates", "transient")])
def test_auditor_equals_fsck_over_full_sweeps(scheme, fault_profile,
                                              workload):
    assert_auditor_equals_fsck(scheme, workload, fault_profile=fault_profile)


# ----------------------------------------------------------------------
# edits in place: same store, same chunks, new bytes
# ----------------------------------------------------------------------
def _dangle_an_entry(m, report):
    root = m.fs.geometry.cg_data_start(0)
    spf = m.fs.geometry.frag_size // 512
    raw = m.disk.storage.read(root * spf, 8 * spf)
    entry = next(e for e in iter_entries(raw) if e.name == "top")
    poke(m, root, entry.offset, struct.pack("<I", 99))
    return "dangling-entry"


def _bump_a_link_count(m, report):
    geo = m.fs.geometry
    ino = next(i for i, d in report.inodes.items()
               if d.ftype is FileType.REGULAR)
    poke(m, geo.inode_block_daddr(ino), geo.inode_offset_in_block(ino) + 2,
         struct.pack("<H", 9))
    return "link-count"


def _leak_a_fragment(m, report):
    geo = m.fs.geometry
    spf = geo.frag_size // 512
    raw = bytearray(m.disk.storage.read(geo.cg_base(1) * spf,
                                        geo.frags_per_block * spf))
    CgView(raw, geo).set_frags(geo.dfrags_per_cg - 8, 2, True)
    m.disk.storage.write(geo.cg_base(1) * spf, bytes(raw))
    return "leak"


def _share_through_an_indirect_block(m, report):
    # the big file's indirect block, rewritten to claim a small file's
    # block: the big file's record is unchanged, so only the indirect
    # block's own bytes can tell the auditor its claims moved
    geo = m.fs.geometry
    big = next(d for d in report.inodes.values() if d.sindirect)
    small = next(d for d in report.inodes.values()
                 if d.ftype is FileType.REGULAR and not d.sindirect)
    poke(m, big.sindirect, 0, struct.pack("<I", small.direct[0]))
    return "double-alloc"


def _shrink_the_layout(m, report):
    # ncg 2 -> 1 in the superblock: group 1's inodes and fragments leave
    # the volume
    poke(m, m.fs.geometry.superblock_daddr, 20, b"\x01")
    return "dangling-entry"


def _machine_with_a_big_file():
    m = build_populated_machine()
    run_user(m, _write_and_sync(m, "/docs/big",
                                b"x" * (13 * m.fs.geometry.block_size)))
    return m


def _write_and_sync(m, path, data):
    yield from m.fs.write_file(path, data)
    yield from m.fs.sync()


@pytest.mark.parametrize("edit", [_dangle_an_entry, _bump_a_link_count,
                                  _leak_a_fragment,
                                  _share_through_an_indirect_block,
                                  _shrink_the_layout],
                         ids=["directory", "dinode", "bitmap", "indirect",
                              "superblock"])
def test_an_edit_in_place_is_seen_by_the_next_audit(edit):
    m = _machine_with_a_big_file()
    store = m.disk.storage
    auditor = Auditor(SMALL_GEOMETRY)
    before = auditor.audit(store)
    assert not before.findings, before.warnings + before.errors
    assert auditor.audit(store) is before  # nothing it read moved
    key = edit(m, before)  # no snapshot: the audited store is rewritten
    after = auditor.audit(store)
    assert key in {found.key for found in after.findings}
    assert _seen(after) == _seen(fsck(store, SMALL_GEOMETRY))


def test_an_edit_of_the_log_is_seen_by_the_next_audit():
    machine = build_machine("journal")
    recorded = record_run(machine,
                          build_workload(machine, "microbench", 0, 6),
                          capture_media=True)
    geo = machine.config.fs_geometry
    spf = geo.frag_size // 512
    synthesizer = ImageSynthesizer(recorded.base_image, recorded.media_log)
    # a crash image recovery replays a committed transaction into
    image = next(image for image in (
        synthesizer.image_at(point.time).snapshot()
        for point in enumerate_crash_points(recorded, samples_per_write=0))
        if scan_log(image, geo).overlay)
    auditor = Auditor(geo)
    before = auditor.audit(image)
    assert auditor.audit(image) is before
    assert before.journal == scan_log(image, geo)  # the scan it audited
    # one byte of the transaction's first log sector: it no longer checks
    _seq, position = journal.parse_header(
        image.read(geo.journal_start * spf, spf))
    lbn = (geo.journal_start + 1 + position) * spf
    sector = bytearray(image.read(lbn))
    sector[0] ^= 0xFF
    image.write(lbn, bytes(sector))
    assert not scan_log(image, geo).overlay
    after = auditor.audit(image)
    assert after is not before and not after.journal.overlay
    assert _seen(after) == _seen(fsck(image, geo))


def test_an_unchanged_log_is_recovered_without_parsing_a_record(
        monkeypatch):
    machine = build_machine("journal")
    recorded = record_run(machine,
                          build_workload(machine, "microbench", 0, 6),
                          capture_media=True)
    geo = machine.config.fs_geometry
    synthesizer = ImageSynthesizer(recorded.base_image, recorded.media_log)
    # a crash image whose log holds more than one committed transaction
    image = next(image for image in (
        synthesizer.image_at(point.time).snapshot()
        for point in enumerate_crash_points(recorded, samples_per_write=0))
        if len(scan_log(image, geo).transactions) > 1)
    auditor = Auditor(geo)
    before = auditor.audit(image)
    # the spare last byte of a free inode slot: read by the audit, outside
    # the log, and it changes no finding
    ino = next(ino for ino in range(ROOT_INO + 1, geo.ipg)
               if ino not in before.inodes)
    address = (geo.inode_block_daddr(ino) * geo.frag_size
               + geo.inode_offset_in_block(ino) + INODE_SIZE - 1)
    _poke_byte(image, address, 0x5A)
    parsed = []
    real = journal.parse_descriptor
    monkeypatch.setattr(journal, "parse_descriptor", lambda raw, seq: (
        parsed.append(seq), real(raw, seq))[1])
    after = auditor.audit(image, [(address // 512, 1)])
    assert after is not before  # the inode table moved: the audit ran
    assert parsed == []  # ... and took every log record from the last one
    assert after.journal == scan_log(image, geo) and parsed
    assert _seen(after) == _seen(fsck(image, geo))


# ----------------------------------------------------------------------
# random runs of edits: any record, any byte, shared claims and undoing
# ----------------------------------------------------------------------
@functools.cache
def _edit_targets():
    """The big-file image, and the byte ranges of each kind of record an
    edit may hit: allocated and free dinodes, directory blocks, group
    headers (bitmaps included) and the indirect block."""
    m = _machine_with_a_big_file()
    geo = m.fs.geometry
    report = fsck(m.disk.storage, SMALL_GEOMETRY)

    def record(ino):
        return (geo.inode_block_daddr(ino) * geo.frag_size
                + geo.inode_offset_in_block(ino), INODE_SIZE)

    files = [ino for ino, din in sorted(report.inodes.items())
             if din.ftype is FileType.REGULAR]
    free = [ino for ino in (ROOT_INO + 40, geo.ipg + 3) if ino not in
            report.inodes]
    ranges = {
        "dinode": [record(ino) for ino in sorted(report.inodes)],
        "free slot": [record(ino) for ino in free],
        "directory": [(din.direct[0] * geo.frag_size, geo.block_size)
                      for din in report.inodes.values()
                      if din.ftype is FileType.DIRECTORY],
        "header": [(geo.cg_base(cg) * geo.frag_size, geo.frag_size)
                   for cg in range(geo.ncg)],
        "indirect": [(din.sindirect * geo.frag_size, geo.block_size)
                     for din in report.inodes.values() if din.sindirect],
    }
    return m.disk.storage.snapshot(), ranges, [record(ino)[0]
                                               for ino in files]


def _poke_byte(store, address, value):
    lbn, at = divmod(address, 512)
    sector = bytearray(store.read(lbn))
    sector[at] = value
    store.write(lbn, bytes(sector))


_EDITS = st.lists(st.tuples(
    st.sampled_from(["dinode", "free slot", "directory", "header",
                     "indirect", "share", "free", "undo", "none"]),
    st.integers(0, 1 << 16), st.integers(0, 255)), min_size=1, max_size=8)


@given(_EDITS)
@settings(max_examples=100, deadline=None)
def test_audits_after_random_record_edits_equal_fsck(edits):
    base, ranges, files = _edit_targets()
    store = base.snapshot()
    auditor = Auditor(SMALL_GEOMETRY)
    auditor.audit(store)
    touched = []  # sectors an edit rewrote: what "undo" restores
    for kind, at, value in edits:
        edited = len(touched)  # touched[edited:] is what this edit rewrote
        if kind == "share":
            # a direct pointer of one file copied into another's: a
            # fragment with two claimants, or one claimed twice
            source, target = files[at % len(files)], files[value % len(files)]
            pointer = 28 + 4 * (at // len(files) % 12)
            raw = store.read(source // 512, 1)[source % 512 + 28:
                                               source % 512 + 32]
            for i, byte in enumerate(raw):
                touched.append((target + pointer + i) // 512)
                _poke_byte(store, target + pointer + i, byte)
        elif kind == "free":
            # a referenced dinode's mode zeroed: its entries now dangle
            start, _size = ranges["dinode"][at % len(ranges["dinode"])]
            touched.append(start // 512)
            _poke_byte(store, start, 0)
            _poke_byte(store, start + 1, 0)
        elif kind == "undo":
            if touched:
                lbn = touched.pop(at % len(touched))
                store.write(lbn, base.read(lbn))
                edited = len(touched)
                touched.append(lbn)  # rewritten again: may be undone again
        elif kind != "none":
            start, size = ranges[kind][at % len(ranges[kind])]
            address = start + at // len(ranges[kind]) % size
            touched.append(address // 512)
            _poke_byte(store, address, value)
        # the audit is told only the sectors this edit rewrote
        report = auditor.audit(store, [(lbn, 1) for lbn in touched[edited:]])
        assert _seen(report) == _seen(fsck(store, SMALL_GEOMETRY)), \
            (kind, at, value)


def test_another_layout_in_the_superblock_starts_cold():
    m = build_populated_machine()
    store, geo = m.disk.storage, m.fs.geometry
    # a file of group 0 pointing into group 1's data area ...
    ino = next(i for i, d in fsck(store, SMALL_GEOMETRY).inodes.items()
               if i < geo.ipg and d.ftype is FileType.REGULAR)
    poke(m, geo.inode_block_daddr(ino), geo.inode_offset_in_block(ino) + 28,
         struct.pack("<I", geo.cg_data_start(1) + geo.dfrags_per_cg - 8))
    auditor = Auditor(SMALL_GEOMETRY)
    assert "bad-pointer" not in {found.key
                                 for found in auditor.audit(store).findings}
    # ... is the same record under a one-group layout, where that pointer
    # leaves the volume: a remembered claim stream would hide it
    store.write(geo.superblock_daddr * (geo.frag_size // 512),
                Superblock(replace(geo, ncg=1)).pack(geo.frag_size))
    report = auditor.audit(store)
    assert "bad-pointer" in {found.key for found in report.findings}
    assert _seen(report) == _seen(fsck(store, SMALL_GEOMETRY))


# ----------------------------------------------------------------------
# what the auditor holds between audits
# ----------------------------------------------------------------------
def _scanned(auditor):
    """ino -> the auditor's remembered decode of that dinode."""
    return {ino: scanned for group in auditor._checker.groups
            for ino, scanned in group.inodes.items()}


def test_the_memo_holds_only_the_last_audits_results():
    m = build_populated_machine()
    geo = m.fs.geometry
    ino = next(i for i, d in fsck(m.disk.storage, SMALL_GEOMETRY)
               .inodes.items() if d.ftype is FileType.REGULAR)
    spf = geo.frag_size // 512
    at = geo.inode_block_daddr(ino) * spf

    def record():
        offset = geo.inode_offset_in_block(ino)
        return m.disk.storage.read(at, geo.frags_per_block * spf)[
            offset:offset + 128]

    auditor = Auditor(SMALL_GEOMETRY)
    auditor.audit(m.disk.storage)
    first, old = _scanned(auditor), record()
    assert first[ino].record == old
    _bump_a_link_count(m, fsck(m.disk.storage, SMALL_GEOMETRY))
    auditor.audit(m.disk.storage)
    second = _scanned(auditor)
    assert second[ino].record == record() != old
    # one result per record: the edit replaced the one dinode it touched,
    # and nothing of the first audit lingers -- not even its checker
    assert second.keys() == first.keys()
    assert [i for i in second if second[i] is not first[i]] == [ino]
    assert auditor._checker.previous is None


def test_an_unreadable_superblock_forgets_everything():
    m = make_machine("noorder")
    auditor = Auditor(SMALL_GEOMETRY)
    auditor.audit(m.disk.storage)
    assert auditor._checker
    m.disk.storage.write(SMALL_GEOMETRY.superblock_daddr * 2, bytes(512))
    assert auditor.audit(m.disk.storage).errors
    assert auditor._checker is None
    assert list(auditor._reads) == [(SMALL_GEOMETRY.superblock_daddr * 2,
                                     2)]
