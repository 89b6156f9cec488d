"""Copy-on-write copies a chunk only while another live store holds it.

``snapshot`` / ``load_from`` share every chunk between source and clone.
A write to a shared chunk copies it first only if some other live store
of the family (snapshots, their sources, theirs) still holds that very
chunk; once the sharers have been dropped the writer keeps its chunk.
Isolation is held against the per-sector reference model, unit by unit,
under random families of live and dropped stores, and over whole crash
sweeps (every image the auditors see digests as the same sweep run on
``ReferenceStore`` does, and the findings are equal).
"""

import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro.disk import DiskGeometry, SectorStore
from repro.harness.recording import record_run
from repro.integrity import explorer
from repro.integrity.fsck import Auditor
from tests.disk.reference_store import ReferenceStore

SECTOR = 512


def _filled(fill, nsectors=1):
    return bytes([fill]) * (SECTOR * nsectors)


def _chunk(store, lbn):
    return store._chunks[lbn // 128]


def test_a_dropped_snapshot_leaves_its_source_writing_in_place():
    store = SectorStore(DiskGeometry())
    store.write(10, _filled(1))
    before = _chunk(store, 10)
    snap = store.snapshot()
    del snap
    store.write(11, _filled(2))
    assert _chunk(store, 10) is before
    assert store.read(10, 2) == _filled(1) + _filled(2)


def test_a_dropped_source_leaves_its_snapshot_writing_in_place():
    store = SectorStore(DiskGeometry())
    store.write(10, _filled(1))
    snap = store.snapshot()
    before = _chunk(snap, 10)
    del store
    snap.write(10, _filled(3))
    assert _chunk(snap, 10) is before


def test_dropped_snapshots_leave_the_family():
    """A sweep snapshots its image once per point: the scan a shared
    write makes stays as long as the live family, not the history."""
    store = SectorStore(DiskGeometry())
    store.write(10, _filled(1))
    for _ in range(100):
        store.snapshot()
    kept = store.snapshot()
    assert len(store._family) == 2
    assert [member() for member in store._family] == [store, kept]


def test_a_live_snapshot_is_copied_away_from():
    store = SectorStore(DiskGeometry())
    store.write(10, _filled(1))
    snap = store.snapshot()
    store.write(10, _filled(2))
    assert _chunk(store, 10) is not _chunk(snap, 10)
    assert snap.read(10) == _filled(1) and store.read(10) == _filled(2)


def test_two_live_snapshots_stay_isolated():
    store = SectorStore(DiskGeometry())
    store.write(10, _filled(1))
    first, second = store.snapshot(), store.snapshot()
    first.write(10, _filled(2))
    second.write(10, _filled(3))
    store.write(10, _filled(4))
    assert [s.read(10) for s in (store, first, second)] == [
        _filled(4), _filled(2), _filled(3)]


def test_a_snapshot_of_a_dropped_snapshot_still_shares_with_the_source():
    store = SectorStore(DiskGeometry())
    store.write(10, _filled(1))
    middle = store.snapshot()
    last = middle.snapshot()
    del middle
    store.write(10, _filled(2))
    assert last.read(10) == _filled(1)
    last.write(10, _filled(3))
    assert store.read(10) == _filled(2)


def test_load_from_shares_with_the_image_it_loads():
    image = SectorStore(DiskGeometry())
    image.write(10, _filled(1))
    live = SectorStore(DiskGeometry())
    live.write(300, _filled(9))
    live.load_from(image)
    live.write(10, _filled(2))
    assert image.read(10) == _filled(1)
    image.write(10, _filled(3))
    assert live.read(10) == _filled(2)


#: a family of at most four stores: write to one, snapshot one, drop one,
#: or load one from another
family_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, 3), st.integers(0, 400),
                  st.integers(1, 3), st.integers(1, 255)),
        st.tuples(st.just("snapshot"), st.integers(0, 3)),
        st.tuples(st.just("drop"), st.integers(0, 3)),
        st.tuples(st.just("load"), st.integers(0, 3), st.integers(0, 3)),
    ),
    max_size=40,
)


def _run_family(make, op_list):
    stores = [make()]
    for op in op_list:
        kind, i = op[0], op[1] % len(stores)
        if kind == "write":
            _, _, lbn, nsectors, fill = op
            stores[i].write(lbn, _filled(fill, nsectors))
        elif kind == "snapshot" and len(stores) < 4:
            stores.append(stores[i].snapshot())
        elif kind == "drop" and len(stores) > 1:
            del stores[i]
            gc.collect()
        elif kind == "load":
            stores[i].load_from(stores[op[2] % len(stores)])
    return [store.read(0, 410) for store in stores]


@settings(max_examples=80, deadline=None)
@given(op_list=family_ops)
def test_families_of_live_and_dropped_stores_match_the_reference(op_list):
    geometry = DiskGeometry()
    assert (_run_family(lambda: SectorStore(geometry), op_list)
            == _run_family(lambda: ReferenceStore(geometry), op_list))


def _sweep_digests(scheme, workload, ops, points, fault_profile, base_of):
    """Findings and per-audit image digests of a ``--secrets
    --verify-repair`` sweep whose base image is ``base_of(recorded)``."""
    machine = explorer.build_machine(scheme, secrets=True,
                                     fault_profile=fault_profile,
                                     fault_seed=3)
    recorded = record_run(machine, explorer.build_workload(
        machine, workload, 0, ops))
    points = explorer.enumerate_crash_points(recorded, 2, points,
                                             sample_seed=0)
    digests = []
    audit = Auditor.audit

    def digesting_audit(auditor, image):
        digests.append(image.digest())
        return audit(auditor, image)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Auditor, "audit", digesting_audit)
        findings = explorer._verify(
            base_of(recorded), recorded.media_log,
            machine.config.fs_geometry, True, True,
            machine.scheme.crash_guarantees, points)
    return findings, digests


def _reference_base(recorded):
    base = ReferenceStore(recorded.base_image.geometry)
    base.load_from(recorded.base_image)
    return base


def _assert_sweep_matches_the_reference(scheme, workload, ops, points,
                                        fault_profile=None):
    shipped = _sweep_digests(scheme, workload, ops, points, fault_profile,
                             lambda recorded: recorded.base_image)
    reference = _sweep_digests(scheme, workload, ops, points, fault_profile,
                               _reference_base)
    assert shipped[1], "the sweep must audit something"
    assert shipped == reference


@pytest.mark.parametrize("scheme, fault_profile", [
    ("journal", None), ("softupdates", "transient")])
def test_sweep_images_match_the_reference_store(scheme, fault_profile):
    _assert_sweep_matches_the_reference(scheme, "microbench", 8, 40,
                                        fault_profile)


@pytest.mark.slow
@pytest.mark.parametrize("workload", explorer.WORKLOADS)
@pytest.mark.parametrize("scheme", sorted(explorer.SCHEMES))
def test_every_corpus_sweep_images_match_the_reference_store(scheme,
                                                             workload):
    """The byte-identity corpus's forty sweeps, at their default size."""
    _assert_sweep_matches_the_reference(scheme, workload, None, 240)
