"""Whole-machine store equivalence: scheme x fault profile x store.

The sector store is below the driver, so swapping it must leave every
simulated observable untouched: the event timeline, the table-row
measurements, the persistent image digest, the crash image, and fsck's
verdict on that image.  This drives a small metadata-heavy workload under
every ordering scheme (including journaling), with and without transient
fault injection, once on the shipped store and once with the per-sector
dict reference model installed -- and requires the outputs to be
byte-identical.
"""

import pytest

from repro.costs import CostModel
from repro.disk import SectorStore
from repro.faults import FaultPlan
from repro.fs.layout import FSGeometry
from repro.integrity.fsck import fsck
from repro.machine import Machine, MachineConfig
from repro.ordering import JournalScheme

from tests.conftest import SCHEME_FACTORIES, SMALL_GEOMETRY
from tests.disk.reference_store import ReferenceStore
from tests.integrity.replay_oracle import crash_image

SCHEMES = list(SCHEME_FACTORIES) + ["journal"]
FAULTS = {
    "none": None,
    "transient": FaultPlan(seed=11, transient_read_rate=0.02,
                           transient_write_rate=0.02),
}


def build(scheme_name, faults, store_cls):
    if scheme_name == "journal":
        scheme = JournalScheme()
        geometry = FSGeometry(ipg=256, dfrags_per_cg=2048, ncg=2)
    else:
        scheme = SCHEME_FACTORIES[scheme_name]()
        geometry = SMALL_GEOMETRY
    machine = Machine(MachineConfig(
        scheme=scheme, fs_geometry=geometry, cache_bytes=2 * 1024 * 1024,
        costs=CostModel(scale=0.0), faults=faults))
    # nothing captures the store before format(), so this is the whole swap
    machine.disk.storage = store_cls(machine.disk.geometry)
    machine.format()
    return machine


def observe(scheme_name, fault_name, store_cls):
    machine = build(scheme_name, FAULTS[fault_name], store_cls)
    fs = machine.fs

    def user():
        yield from fs.mkdir("/d")
        yield from fs.mkdir("/d/sub")
        for i in range(12):
            handle = yield from fs.create(f"/d/f{i}")
            yield from fs.write(handle, bytes([i + 1]) * (1024 + 512 * i))
            yield from fs.close(handle)
        yield from fs.link("/d/f3", "/d/sub/hard")
        for i in range(0, 12, 3):
            yield from fs.unlink(f"/d/f{i}")

    machine.engine.run_until(machine.engine.process(user(), name="user"),
                             max_events=5_000_000)
    machine.sync_and_settle()
    storage = machine.disk.storage
    assert type(storage) is store_cls
    image = crash_image(machine)
    report = fsck(image, machine.fs.geometry)
    return {
        "events": machine.engine.events_processed,
        "now": machine.engine.now,
        "requests": len(machine.driver.trace),
        "digest": storage.digest(),
        "written": storage.sectors_written,
        "distinct": len(storage),
        "crash_digest": image.digest(),
        "fsck": (sorted(report.errors), sorted(report.warnings)),
    }


class TestStoreInvisibility:
    @pytest.mark.parametrize("fault_name", list(FAULTS))
    @pytest.mark.parametrize("scheme_name", SCHEMES)
    def test_every_observable_identical_across_stores(self, scheme_name,
                                                      fault_name):
        assert observe(scheme_name, fault_name, SectorStore) \
            == observe(scheme_name, fault_name, ReferenceStore)
