"""The word-width checker against the per-bit / per-slot one it replaced.

``repro.integrity.fsck`` reads each bitmap as one int and unpacks only the
allocated inode slots; ``tests/integrity/reference_fsck.py`` keeps the
parent commit's bit-by-bit audit and slot-by-slot walk.  Nothing about the
findings may differ -- not a message, not their order:

* random cylinder-group headers x random claim / allocated sets, and random
  inode tables, through both versions of the two scans;
* ``valid_data_frag``'s arithmetic against ``FSGeometry.data_index`` at
  every fragment of a volume;
* whole crash sweeps (every media-resident scheme, the journal overlay, the
  rule-breaking shims) with the reference scans patched into ``fsck``;
* ``RecoveredView`` against a sector-by-sector composition.

The same sweeps are the corpus for the other reference kept here,
``tests/integrity/reference_classify.py`` -- the parent's message ->
invariant substring classifier: every typed finding must carry the key and
severity it would have read out of the finding's message.
"""

import importlib
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.disk.geometry import DiskGeometry
from repro.disk.storage import SectorStore
from repro.fs.alloc import CG_MAGIC, CgView, bits_of, set_bits
from repro.fs.journal import ScanResult
from repro.fs.layout import (
    INODE_SIZE,
    ROOT_INO,
    Dinode,
    FSGeometry,
    with_journal,
)
from repro.harness.recording import record_run
from repro.integrity.explorer import (
    EXPLORER_GEOMETRY,
    WORKLOADS,
    build_machine,
    build_workload,
    enumerate_crash_points,
    explore,
)
from repro.integrity.fsck import (
    RecoveredView,
    cg_bitmap_findings,
    cg_inode_records,
    fsck,
    read_image_frags,
    valid_data_frag,
)
from repro.integrity.invariants import Violation, classify_report, finding
from repro.integrity.medialog import ImageSynthesizer
from repro.ordering.registry import REGISTRY
from repro.ordering.shims import SHIMS

from tests.integrity import reference_classify, reference_fsck

#: the module, for patching (``repro.integrity.fsck`` the attribute is the
#: function the package re-exports)
fsck_module = importlib.import_module("repro.integrity.fsck")

#: one-fragment blocks of four inodes: both bitmaps end in a partly used
#: byte (12 inode bits, 13 fragment bits), so stray bits past the limits
#: are in play
TINY = FSGeometry(block_size=512, frag_size=512, ipg=12, dfrags_per_cg=13,
                  ncg=2)
GEOMETRIES = [TINY, EXPLORER_GEOMETRY]
SECTOR = DiskGeometry().sector_size


def _store_with(geo, daddr, data):
    image = SectorStore(DiskGeometry())
    image.write(daddr * (geo.frag_size // SECTOR), data)
    return image


def _pairs(findings):
    """Typed findings as ``reference_fsck``'s ``(kind, msg)`` pairs."""
    return [("error" if found.is_corruption else "warning", found.message)
            for found in findings]


# ----------------------------------------------------------------------
# the bit helpers
# ----------------------------------------------------------------------
@given(st.sets(st.integers(0, 299)))
def test_bits_of_and_set_bits_are_inverses(indices):
    bits = bits_of(indices, 300)
    assert bits == sum(1 << index for index in indices)
    assert set_bits(bits) == sorted(indices)


@pytest.mark.parametrize("geo", GEOMETRIES, ids=["tiny", "explorer"])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_whole_bitmap_reads_match_the_bit_probes(geo, data):
    raw = bytearray(data.draw(st.binary(min_size=geo.frag_size,
                                        max_size=geo.frag_size)))
    view = CgView(raw, geo)
    # the per-bit probe is the one the allocator's set / find paths read
    assert set_bits(view.frag_bits()) == [
        index for index in range(geo.dfrags_per_cg)
        if view._get(view._fbm_at, index)]
    assert set_bits(view.inode_bits()) == [
        index for index in range(geo.ipg) if view._get(view._ibm_at, index)]


@pytest.mark.parametrize("geo", GEOMETRIES + [with_journal(EXPLORER_GEOMETRY)],
                         ids=["tiny", "explorer", "journal"])
def test_valid_data_frag_is_what_data_index_accepts(geo):
    def accepted(daddr):
        try:
            geo.data_index(daddr)
            return True
        except ValueError:
            return False

    # every fragment of the volume and a few past both ends
    for daddr in range(-3, geo.total_frags + 3):
        assert valid_data_frag(geo, daddr) == accepted(daddr), daddr


# ----------------------------------------------------------------------
# cg_bitmap_findings: random headers x random claims / allocated sets
# ----------------------------------------------------------------------
@st.composite
def bitmap_cases(draw):
    geo = draw(st.sampled_from(GEOMETRIES))
    cg = draw(st.integers(0, geo.ncg - 1))
    header = bytearray(geo.block_size)
    magic = draw(st.sampled_from([CG_MAGIC, CG_MAGIC, CG_MAGIC, 0, 0xC6C6]))
    struct.pack_into("<IIII", header, 0, magic, cg, geo.ipg,
                     geo.dfrags_per_cg)
    nbytes = (geo.ipg + 7) // 8 + (geo.dfrags_per_cg + 7) // 8
    # mostly-agreeing bitmaps are the realistic case; fully random bytes
    # (stray bits in the last byte of each map included) the hostile one
    if draw(st.booleans()):
        bitmaps = draw(st.binary(min_size=nbytes, max_size=nbytes))
    else:
        bitmaps = bytes(draw(st.sampled_from([0x00, 0xFF, 0x03, 0x07]))
                        for _ in range(nbytes))
    header[64:64 + nbytes] = bitmaps
    base = geo.cg_data_start(cg)
    # claims reach a little past both ends of this group's data area,
    # i.e. into its inode table and into the next group's header
    daddrs = draw(st.sets(st.integers(base - 3, base + geo.dfrags_per_cg + 3),
                          max_size=40))
    claims = {daddr: draw(st.integers(ROOT_INO, geo.total_inodes - 1))
              for daddr in sorted(daddrs)}
    # inodes of every group, the burned 0 and 1 and ROOT_INO included
    allocated = draw(st.sets(st.integers(0, geo.total_inodes - 1),
                             max_size=30))
    return geo, cg, bytes(header), claims, allocated


def _bitmap_findings(header, geo, cg, claims, allocated):
    """``cg_bitmap_findings`` fed what the reference is fed: a claim
    table and an allocated set, either reaching past the group."""
    base, first = geo.cg_data_start(cg), cg * geo.ipg
    claimed = bits_of([daddr - base for daddr in claims
                       if 0 <= daddr - base < geo.dfrags_per_cg],
                      geo.dfrags_per_cg)
    wanted = bits_of([ino - first for ino in allocated
                      if 0 <= ino - first < geo.ipg], geo.ipg)
    return list(cg_bitmap_findings(header, geo, cg, claimed, wanted,
                                   claims).values())


@given(bitmap_cases())
@settings(max_examples=300, deadline=None)
def test_bitmap_findings_equal_the_per_bit_audit(case):
    geo, cg, header, claims, allocated = case
    image = _store_with(geo, geo.cg_base(cg), header)
    found = _bitmap_findings(header, geo, cg, claims, allocated)
    pairs = reference_fsck.cg_bitmap_findings(image, geo, cg, claims,
                                              allocated)
    assert _pairs(found) == pairs
    assert found == reference_classify.typed(pairs)


def test_root_ino_used_but_free_is_exempt_and_burned_inodes_are_skipped():
    geo = EXPLORER_GEOMETRY
    header = bytearray(geo.block_size)
    view = CgView.initialize(header, 0, geo)
    for index in range(ROOT_INO + 2):  # 0, 1 burned; ROOT_INO; one leak
        view.set_inode(index, True)
    image = _store_with(geo, geo.cg_base(0), bytes(header))
    for allocated in (set(), {0, 1}):
        found = _bitmap_findings(bytes(header), geo, 0, {}, allocated)
        assert _pairs(found) == reference_fsck.cg_bitmap_findings(
            image, geo, 0, {}, allocated)
        assert found == [finding("leak", f"inode {ROOT_INO + 1} bitmap used "
                                         f"but dinode free (leak)")]


# ----------------------------------------------------------------------
# cg_inode_records: random inode tables
# ----------------------------------------------------------------------
_RECORD = st.one_of(
    st.builds(lambda mode, nlink, size, ptr: Dinode(
        mode=mode, nlink=nlink, size=size,
        direct=[ptr] + [0] * 11).pack(),
        st.sampled_from([0x8000, 0x41ED, 0x0001, 0x0100, 0x1000, 0xFFFF]),
        st.integers(0, 5), st.integers(0, 1 << 20), st.integers(0, 5000)),
    # mode zero but the rest of the record is garbage: still a free slot
    st.binary(min_size=8, max_size=8).map(
        lambda rest: b"\0\0" + rest * 15 + bytes(6)))


@pytest.mark.parametrize("geo", GEOMETRIES, ids=["tiny", "explorer"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_inode_scan_equals_the_per_slot_walk(geo, data):
    cg = data.draw(st.integers(0, geo.ncg - 1))
    # a mostly free table, as on a real image; slots 0 and 1 (burned in
    # group 0) and the last slot of the last block are drawn often
    slots = st.one_of(st.sampled_from([0, 1, ROOT_INO, geo.ipg - 1]),
                      st.integers(0, geo.ipg - 1))
    table = bytearray(geo.ipg * INODE_SIZE)
    for slot, record in data.draw(st.dictionaries(slots, _RECORD,
                                                  max_size=12)).items():
        table[slot * INODE_SIZE:(slot + 1) * INODE_SIZE] = record
    image = _store_with(geo, geo.cg_inode_table(cg), bytes(table))
    records = cg_inode_records(bytes(table), geo, cg)
    assert records == _reference_records(image, geo, cg)
    assert all(ino >= ROOT_INO for ino, _record in records)


def _reference_records(image, geo, cg):
    """The per-slot walk's allocated dinodes as the records the checker
    keys its results on: each is the slot's 128 bytes, which decode to the
    walk's dinode."""
    table = read_image_frags(image, geo, geo.cg_inode_table(cg),
                             geo.inode_blocks_per_cg * geo.frags_per_block)
    records = []
    for ino, din in reference_fsck.scan_cg_inodes(image, geo, cg):
        slot = ino - cg * geo.ipg
        record = table[slot * INODE_SIZE:(slot + 1) * INODE_SIZE]
        assert Dinode.unpack(record) == din
        records.append((ino, record))
    return records


# ----------------------------------------------------------------------
# whole sweeps with the reference scans patched in
# ----------------------------------------------------------------------
#: the media-resident standard schemes (the journal among them: its log is
#: more media sectors, judged through the overlay; NVRAM's mirror is not)
#: and the three mutants
SWEEP_SCHEMES = [slug for slug in REGISTRY if slug != "nvram"] + sorted(SHIMS)


def _reports(images, geometry):
    reports = [fsck(image, geometry) for image in images]
    for report in reports:
        # same words, same order, same verdicts as the parent's classifier
        assert reference_classify.verdicts(classify_report(report)) == \
            reference_classify.verdicts(
                reference_classify.classify_report(report))
    return [(report.findings, report.errors, report.warnings, report.inodes,
             report.references) for report in reports]


@pytest.mark.parametrize("workload,ops", [("microbench", 6), ("reuse", 4)])
@pytest.mark.parametrize("scheme", SWEEP_SCHEMES)
def test_every_crash_point_reports_identically(monkeypatch, scheme, workload,
                                               ops):
    machine = build_machine(scheme)
    recorded = record_run(machine, build_workload(machine, workload, 0, ops),
                          capture_media=True)
    # every enumerated point of the small sweeps; a seeded sample of the
    # long ones (a journalled reuse run has ~9 000 boundaries)
    points = enumerate_crash_points(recorded, samples_per_write=2,
                                    max_points=100)
    synthesizer = ImageSynthesizer(recorded.base_image, recorded.media_log)
    images = [synthesizer.image_at(point.time).snapshot()
              for point in sorted(points, key=lambda p: (p.time, p.index))]
    geometry = machine.config.fs_geometry
    shipped = _reports(images, geometry)
    reached = {"records": 0, "bitmaps": 0}

    def reference_records(table, geo, cg):
        reached["records"] += 1
        return _reference_records(
            _store_with(geo, geo.cg_inode_table(cg), table), geo, cg)

    def reference_bitmaps(header, geo, cg, claimed, wanted, claims,
                          known=None):
        reached["bitmaps"] += 1
        base, first = geo.cg_data_start(cg), cg * geo.ipg
        found = reference_classify.typed(reference_fsck.cg_bitmap_findings(
            _store_with(geo, geo.cg_base(cg), header), geo, cg,
            {base + index: claims[base + index]
             for index in set_bits(claimed)},
            {first + index for index in set_bits(wanted)}))
        return dict(enumerate(found))

    monkeypatch.setattr(fsck_module, "cg_inode_records", reference_records)
    monkeypatch.setattr(fsck_module, "cg_bitmap_findings", reference_bitmaps)
    assert shipped == _reports(images, geometry)
    assert len(images) > 20
    # every audit went through both: the reference is not bypassed
    assert reached["records"] == geometry.ncg * len(images)
    assert reached["bitmaps"] >= len(images)
    if scheme != "nvram":
        assert any(findings for findings, *_rest in shipped), \
            "a sweep with no finding at all compares nothing"


@pytest.mark.slow
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("scheme", SWEEP_SCHEMES)
def test_full_sweeps_carry_the_reference_verdicts(scheme, workload):
    """Every finding of every boundary, the stale-data walk and repair
    verification included (a journalled reuse run is sampled)."""
    report = explore(scheme, workload, max_points=2000,
                     secrets=True, verify_repair=True)
    assert report.points > 50
    for found in report.findings:
        reference_classify.assert_agrees(found.violations)


# ----------------------------------------------------------------------
# the reference classifier itself
# ----------------------------------------------------------------------
#: one instance of every message fsck.py, repair verification and the
#: stale-data audit can produce, with the invariant the reference reads
#: out of it (None: no pattern, the catch-all of the list it came from)
MESSAGES = [
    ("superblock unreadable: bad superblock magic 0x0", "fs-unreadable"),
    ("root inode missing", "fs-unreadable"),
    ("cylinder group 1 bad magic", "fs-unreadable"),
    ("inode 7 points outside the data area (daddr 3)", "bad-pointer"),
    ("inode 7 indirect pointer outside data area (9999999)", "bad-pointer"),
    ("fragment 90 claimed by both inode 5 and inode 7 (rule 2 violated)",
     "double-alloc"),
    ("directory 2 has a hole at block 0", "dir-corrupt"),
    ("directory 2 has a hole at blocks 1-13", "dir-corrupt"),
    ("directory 2 block 0 corrupt: bad reclen 3 at offset 0", "dir-corrupt"),
    ("directory 9: '.' points to 4", "dir-corrupt"),
    ("directory 9 missing '.' or '..'", "dir-corrupt"),
    ("directory 2 entry 'f1' points to out-of-range inode 70000",
     "dangling-entry"),
    ("directory 2 entry 'f1' points to unallocated inode 9 (rule 3 "
     "violated)", "dangling-entry"),
    ("inode 9 mode 0x1000 unparseable", None),
    ("inode 9 allocated but unreferenced (orphan; fsck reclaims)", "leak"),
    ("inode 9 link count 1 below actual references 2 (fsck repairs)",
     "link-count"),
    ("inode 9 link count 3 above actual references 2 (fsck repairs)",
     "link-count"),
    ("fragment 90 in use by inode 9 but marked free (fsck repairs)",
     "bitmap-stale"),
    ("fragment 90 marked used but unreferenced (leak)", "leak"),
    ("inode 9 allocated but bitmap says free (fsck repairs)",
     "bitmap-stale"),
    ("inode 9 bitmap used but dinode free (leak)", "leak"),
    ("stale data exposed: inode 9 block 0 exposes stale data", "stale-data"),
    ("repair left 2 findings: inode 9 link count 1 below actual references "
     "2 (fsck repairs)", "link-count"),
    # entry names that spell another invariant's pattern: the earlier
    # invariant still wins
    ("directory 2 entry 'link count' points to unallocated inode 9 (rule 3 "
     "violated)", "dangling-entry"),
    ("directory 2 entry '(leak)' points to out-of-range inode 70000",
     "dangling-entry"),
    ("directory 2 entry 'bad magic' points to unallocated inode 9 (rule 3 "
     "violated)", "dangling-entry"),
    ("nothing any invariant names", None),
]


def _nested_classify(message, kind):
    for key, severity, patterns in reference_classify.PATTERNS:
        if any(pattern in message for pattern in patterns):
            return Violation(key, severity, message)
    return Violation(*reference_classify.UNKNOWN[kind], message)


@pytest.mark.parametrize("kind", ["error", "warning"])
@pytest.mark.parametrize("message,key", MESSAGES)
def test_flat_probe_equals_the_nested_matches_loop(message, key, kind):
    """The oracle's own pin: the reference's flat probe is first-row-wins
    over its table and lands every message where this table says -- and
    the key the check that words the message names is that verdict."""
    violation = reference_classify.classify_message(message, kind)
    assert violation == _nested_classify(message, kind)
    assert violation.key == (key or reference_classify.UNKNOWN[kind][0])
    # the residue is typed by what was checked, not by what it quotes
    named = "unrepairable" if message.startswith("repair left") else key
    if named:
        reference_classify.assert_agrees([finding(named, message)])


# ----------------------------------------------------------------------
# RecoveredView
# ----------------------------------------------------------------------
def test_recovered_image_read_equals_the_per_sector_composition():
    geo = EXPLORER_GEOMETRY
    spf = geo.frag_size // SECTOR
    base = SectorStore(DiskGeometry())
    base.write(0, bytes(range(256)) * (SECTOR // 256) * 10 * spf)
    # fragments 2 and 3 (adjacent), 6, and one past everything written
    overlay = {frag: bytes([0xA0 + frag]) * geo.frag_size
               for frag in (2, 3, 6, 14)}
    view = RecoveredView(base).recover(geo, ScanResult(overlay=overlay))

    def composed(lbn, nsectors):
        out = []
        for sector in range(lbn, lbn + nsectors):
            frag, within = divmod(sector, spf)
            out.append(overlay[frag][within * SECTOR:(within + 1) * SECTOR]
                       if frag in overlay else base.read(sector, 1))
        return b"".join(out)

    # every range over the first 16 fragments: ranges that start in, end
    # in, lie inside, straddle and miss an overlaid fragment
    for lbn in range(16 * spf):
        for nsectors in range(1, 5 * spf):
            assert view.read(lbn, nsectors) == composed(lbn, nsectors), \
                (lbn, nsectors)
    assert view.read(4 * spf, spf) == base.read(4 * spf, spf)
