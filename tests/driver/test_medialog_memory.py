"""The media write-log must hold each payload exactly once.

Companion regression to ``test_trace_memory.py``: capture-enabled
recording runs put a :class:`~repro.integrity.medialog.MediaLog` among the
drive's ``write_observers``, and the memory discipline is one reference per
media operation -- the log keeps the very bytes object the drive
transferred, never a copy, while the driver trace drops its payloads at
completion.  A sweep over hundreds of crash
points must cost one workload's write volume, not one per crash point.
"""

from repro.disk import Disk
from repro.driver import DeviceDriver, FlagPolicy, FlagSemantics
from repro.integrity.medialog import MediaLog
from repro.sim import Engine


def churn_writes(eng, driver, count=200, sectors=4):
    payloads = [bytes([i % 251]) * (sectors * 512) for i in range(count)]
    requests = [driver.write(1000 + 2 * sectors * i, payloads[i])
                for i in range(count)]
    for request in requests:
        eng.run_until(request.done)
    return payloads


def test_log_holds_each_window_once_and_trace_stays_flat():
    eng = Engine()
    disk = Disk(eng)
    driver = DeviceDriver(eng, disk, FlagPolicy(FlagSemantics.IGNORE))
    log = MediaLog()
    disk.write_observers.append(log.entries.append)
    payloads = churn_writes(eng, driver, count=50)
    # the driver trace keeps zero payload bytes (a row has no payload) ...
    assert len(driver.trace) == 50
    assert not any(hasattr(row, "data") for row in driver.trace)
    # ... while the log holds exactly the media write volume, once:
    # one entry per media operation, payload stored by reference
    assert sum(entry.durable for entry in log.entries) \
        == disk.stats.sectors_written
    assert log.payload_bytes == \
        sum(len(entry.data) for entry in log.entries)
    assert log.payload_bytes <= sum(len(p) for p in payloads)
    assert len({id(entry.data) for entry in log.entries}) == len(log)


def test_log_references_are_not_copies():
    # the drive hands the log the identical bytes object it transferred;
    # a copy per window would double the recording's footprint
    eng = Engine()
    disk = Disk(eng)
    driver = DeviceDriver(eng, disk, FlagPolicy(FlagSemantics.IGNORE))
    log = MediaLog()
    disk.write_observers.append(log.entries.append)
    payloads = churn_writes(eng, driver, count=5)
    # five writes, none contiguous: one media operation each, in LBN order
    assert len(log.entries) == len(payloads)
    for i, entry in enumerate(log.entries):
        assert entry.data is payloads[i], \
            "log entry duplicated the payload instead of sharing it"
