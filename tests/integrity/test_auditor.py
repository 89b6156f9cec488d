"""The auditor against one-shot fsck: same report, less decoding.

:class:`repro.integrity.fsck.Auditor` reuses the previous audit's
per-record results, keyed on the bytes each was computed from.  Its
contract is that nothing a report says may differ from ``fsck`` on the
same image:

* at every point of time-sorted crash sweeps, fed the synthesizer's
  evolving store exactly as the explorer feeds it (tier-1 runs a budget of
  every media-resident scheme and shim; ``-m slow`` every scheme, every
  workload, every point);
* after edits made *in place* in a store it has already audited -- the
  store object and its chunks are the same, only the bytes moved;
* when the superblock describes another layout;

and it keeps only the last audit's results.
"""

import struct
from dataclasses import replace

import pytest

from repro.fs import directory
from repro.fs.alloc import CgView
from repro.fs.layout import FileType
from repro.fs.superblock import Superblock
from repro.harness.recording import record_run
from repro.integrity import explorer
from repro.integrity.explorer import (
    WORKLOADS,
    build_machine,
    build_workload,
    enumerate_crash_points,
)
from repro.integrity.fsck import Auditor, fsck
from repro.integrity.medialog import ImageSynthesizer
from tests.conftest import SMALL_GEOMETRY, make_machine, run_user
from tests.integrity.test_fsck import build_populated_machine, poke
from tests.integrity.test_fsck_equivalence import SWEEP_SCHEMES


def _seen(report):
    return report.findings, report.inodes, report.references


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
        report = auditor.audit(image)
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
    entry = next(e for e in directory.iter_entries(raw) if e.name == "top")
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
    # block: a dinode with an indirect pointer is never remembered, since
    # its key (the 128-byte record) does not cover the indirect block
    geo = m.fs.geometry
    big = next(d for d in report.inodes.values() if d.sindirect)
    small = next(d for d in report.inodes.values()
                 if d.ftype is FileType.REGULAR and not d.sindirect)
    poke(m, big.sindirect, 0, struct.pack("<I", small.direct[0]))
    return "double-alloc"


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
                                  _share_through_an_indirect_block],
                         ids=["directory", "dinode", "bitmap", "indirect"])
def test_an_edit_in_place_is_seen_by_the_next_audit(edit):
    m = _machine_with_a_big_file()
    store = m.disk.storage
    auditor = Auditor(SMALL_GEOMETRY)
    before = auditor.audit(store)
    assert not before.findings, before.warnings + before.errors
    key = edit(m, before)  # no snapshot: the audited store is rewritten
    after = auditor.audit(store)
    assert key in {found.key for found in after.findings}
    assert _seen(after) == _seen(fsck(store, SMALL_GEOMETRY))


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
    first, old = set(auditor._results), record()
    assert (ino, old) in first
    _bump_a_link_count(m, fsck(m.disk.storage, SMALL_GEOMETRY))
    auditor.audit(m.disk.storage)
    second = set(auditor._results)
    assert (ino, old) not in second and (ino, record()) in second
    # one result per record: the edit replaced one key of each kind it
    # touched (the dinode), and nothing of the first audit lingers
    assert len(second) == len(first)
    assert first - second == {(ino, old)}


def test_an_unreadable_superblock_forgets_everything():
    m = make_machine("noorder")
    auditor = Auditor(SMALL_GEOMETRY)
    auditor.audit(m.disk.storage)
    assert auditor._results
    m.disk.storage.write(SMALL_GEOMETRY.superblock_daddr * 2, bytes(512))
    assert auditor.audit(m.disk.storage).errors
    assert not auditor._results
