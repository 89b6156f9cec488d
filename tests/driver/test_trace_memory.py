"""The completed-request trace must not retain payload bytes.

Regression test for a memory growth bug: ``DeviceDriver.trace`` keeps
every completed request for the life of the machine, so holding each
write's payload would accumulate the whole workload's bytes (paper-scale
runs move hundreds of MB).  Payloads are dropped at completion; the media
log keeps the drive's own record of each transfer.
"""

from repro.disk import Disk
from repro.driver import DeviceDriver, FlagPolicy, FlagSemantics
from repro.sim import Engine


def churn_writes(eng, driver, count=200):
    payload = b"\x5c" * (4 * 512)
    requests = [driver.write(1000 + 8 * i, payload) for i in range(count)]
    requests.append(driver.read(1000, 4))
    for request in requests:
        eng.run_until(request.done)
    return requests


def retained_bytes(driver):
    return sum(len(r.data) for r in driver.trace if r.data is not None)


def test_trace_drops_payloads_by_default():
    eng = Engine()
    driver = DeviceDriver(eng, Disk(eng), FlagPolicy(FlagSemantics.IGNORE))
    churn_writes(eng, driver)
    assert len(driver.trace) == 201
    # flat memory: not a single payload byte survives completion
    assert retained_bytes(driver) == 0
    assert all(r.data is None for r in driver.trace)

