"""The completed-request trace must not retain payload bytes.

Regression test for a memory growth bug: ``DeviceDriver.trace`` keeps a
record of every completed request for the life of the machine, so holding
each write's payload would accumulate the whole workload's bytes
(paper-scale runs move hundreds of MB).  A trace row has no payload field,
and the driver drops a request's payload at completion, so an issuer that
keeps the request keeps no bytes either; the media log keeps the drive's
own record of each transfer.
"""

import gc
import tracemalloc
import weakref

import pytest

from repro.disk import Disk
from repro.driver import ChainsPolicy, DeviceDriver, FlagPolicy, FlagSemantics
from repro.driver.request import CompletedRequest
from repro.sim import Engine


def churn_writes(eng, driver, count=200):
    payload = b"\x5c" * (4 * 512)
    requests = [driver.write(1000 + 8 * i, payload) for i in range(count)]
    requests.append(driver.read(1000, 4))
    for request in requests:
        eng.run_until(request.done)
    return requests


def test_trace_drops_payloads_by_default():
    eng = Engine()
    driver = DeviceDriver(eng, Disk(eng), FlagPolicy(FlagSemantics.IGNORE))
    requests = churn_writes(eng, driver)
    assert len(driver.trace) == 201
    # flat memory: not a single payload byte survives completion -- a
    # trace row has nowhere to keep one ...
    assert not any(hasattr(row, "data") for row in driver.trace)
    # ... and the requests their issuer still holds have let theirs go
    assert all(r.data is None for r in requests)



def test_a_completed_request_keeps_one_compact_row():
    """The trace keeps a row of columns per request, not the request: its
    ``done`` event and callbacks list went with it (~370 bytes a request
    when the trace was a list of requests)."""
    eng = Engine()
    driver = DeviceDriver(eng, Disk(eng), FlagPolicy(FlagSemantics.IGNORE))
    payload = b"\x5c" * (4 * 512)

    def complete(count):
        for i in range(count):
            eng.run_until(driver.write(1000 + 8 * (i % 500), payload).done)

    complete(500)  # every sector the loop writes is on the platters now
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        complete(2000)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(driver.trace) == 2500
    assert kept / 2000 <= 100, kept / 2000


def test_a_completed_request_is_freed_once_its_issuer_drops_it():
    eng = Engine()
    driver = DeviceDriver(eng, Disk(eng), FlagPolicy(FlagSemantics.IGNORE))
    gc.disable()  # freed by refcount, not by a cyclic collection
    try:
        request = driver.write(1000, b"\x5c" * (4 * 512))
        eng.run_until(request.done)
        ref = weakref.ref(request)
        del request
        assert ref() is None
    finally:
        gc.enable()
    row, = driver.trace
    assert row.id == 1 and row.is_write and row.nsectors == 4


def test_rows_read_back_what_each_request_was():
    eng = Engine()
    driver = DeviceDriver(eng, Disk(eng), ChainsPolicy())
    first = driver.write(1000, b"\x01" * 512, issuer="user0")
    second = driver.write(2000, b"\x02" * 1024, depends_on=frozenset({1}),
                          issuer="syncer")
    read = driver.read(1000, 1, issuer="user0")
    fields = CompletedRequest._fields
    want = {}
    for request in (first, second, read):
        eng.run_until(request.done)
        want[request.id] = tuple(getattr(request, name) for name in fields)
    trace = driver.trace
    assert sorted(map(tuple, trace)) == sorted(want.values())
    assert [row.id for row in trace[1:]] == list(trace.ids[1:])
    assert trace[-1] == trace[len(trace) - 1]
    assert list(trace.writes) == [int(row.is_write) for row in trace]
    for row in trace:
        assert row.queue_delay == row.dispatch_time - row.issue_time
        assert row.access_time == row.complete_time - row.dispatch_time
        assert row.response_time == row.complete_time - row.issue_time
        assert row.end_lbn == row.lbn + row.nsectors
    with pytest.raises(IndexError):
        trace[3]
    with pytest.raises(AttributeError):
        trace[0].lbn = 7
