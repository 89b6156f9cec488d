"""The media write-log must hold each distinct sector once.

Companion regression to ``test_trace_memory.py``: recording runs put
:meth:`~repro.integrity.medialog.MediaLog.record` among the drive's
``write_observers``, and the memory discipline is one copy per distinct
512-byte sector content -- a write's payload becomes a tuple of the log's
pooled sectors, so a block rewritten to change a few bytes costs the
sectors that changed, while the driver trace drops its payloads at
completion.  ``payload_bytes`` stays the logical write volume.
"""

import tracemalloc

from repro.disk import Disk
from repro.driver import DeviceDriver, FlagPolicy, FlagSemantics
from repro.harness.recording import record_run
from repro.integrity.explorer import build_machine, build_workload
from repro.integrity.medialog import MediaLog
from repro.sim import Engine


def churn_writes(eng, driver, count=200, sectors=4, patterns=251):
    payloads = [bytes([i % patterns]) * (sectors * 512) for i in range(count)]
    requests = [driver.write(1000 + 2 * sectors * i, payloads[i])
                for i in range(count)]
    for request in requests:
        eng.run_until(request.done)
    return payloads


def logged_drive():
    eng = Engine()
    disk = Disk(eng)
    driver = DeviceDriver(eng, disk, FlagPolicy(FlagSemantics.IGNORE))
    log = MediaLog()
    disk.write_observers.append(log.record)
    return eng, disk, driver, log


def test_log_holds_each_window_once_and_trace_stays_flat():
    eng, disk, driver, log = logged_drive()
    payloads = churn_writes(eng, driver, count=50)
    # the driver trace keeps zero payload bytes (a row has no payload) ...
    assert len(driver.trace) == 50
    assert not any(hasattr(row, "data") for row in driver.trace)
    # ... while the log keeps one entry per media operation, and
    # payload_bytes is the logical volume, repeated sectors included
    assert sum(entry.durable for entry in log.entries) \
        == disk.stats.sectors_written
    assert log.payload_bytes == 512 * disk.stats.sectors_written \
        == sum(len(p) for p in payloads)
    assert b"".join(sector for entry in log.entries
                    for sector in entry.data) == b"".join(payloads)


def test_log_references_are_not_copies():
    # identical sectors, within one write and across writes, are one
    # object: 20 writes of 4 sectors over 3 contents hold 3 sectors
    eng, _disk, driver, log = logged_drive()
    payloads = churn_writes(eng, driver, count=20, patterns=3)
    sectors = [sector for entry in log.entries for sector in entry.data]
    assert len(sectors) == 4 * len(payloads)
    assert len({id(sector) for sector in sectors}) == 3
    assert {sector for sector in sectors} == {
        bytes([i]) * 512 for i in range(3)}


def test_closing_drops_the_pool_and_keeps_the_sectors():
    eng, disk, driver, log = logged_drive()
    churn_writes(eng, driver, count=5, patterns=2)
    log.close()
    assert log._pool is None
    assert [entry.data[0][0] for entry in log.entries] == [0, 1, 0, 1, 0]
    assert log.payload_bytes == 5 * 4 * 512


def test_survivor_stores_share_the_pool():
    """NVRAM's mirror stores are pooled with the writes: a survivor whose
    sectors the media log already holds adds none."""
    machine = build_machine("nvram")
    recorded = record_run(machine, build_workload(machine, "reuse", 0, 8))
    log = recorded.media_log
    stores = [data for _when, _lbn, data in log.survivors if data]
    assert stores and all(type(data) is tuple for data in stores)
    sectors = [sector for data in stores for sector in data] \
        + [sector for entry in log.entries for sector in entry.data]
    assert len({id(sector) for sector in sectors}) == len(set(sectors)) \
        < len(sectors)
    assert log._pool is None  # the recording closed it


def test_a_journaled_recording_holds_its_distinct_sectors():
    """The seed-0 Journaling microbench recording of the crash sweep lays
    down 6.3 MB in 12 836 sectors, 1 934 distinct: held once each, the
    recorded run and its machine take under 4 MB (8.3 MB when each write
    kept its own payload)."""
    tracemalloc.start()
    try:
        machine = build_machine("journal")
        recorded = record_run(machine,
                              build_workload(machine, "microbench", 0, 128))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert recorded.media_log.payload_bytes == 6_572_032
    assert held < 4_000_000, f"{held / 1e6:.2f} MB"
