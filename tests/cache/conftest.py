"""Shared fixtures: a small engine + disk + driver + cache rig."""

import pytest

from repro.costs import CostModel
from repro.cache import BufferCache, SyncerDaemon
from repro.disk import Disk
from repro.driver import DeviceDriver
from repro.ordering import OrderingScheme
from repro.sim import CPU, Engine


class CacheRig:
    """A cache with no file system above it.  Its scheme orders nothing:
    *block_copy* sets its ``uses_block_copy``, or pass a *scheme* (a
    stub overriding the write hooks)."""

    def __init__(self, capacity_bytes=64 * 1024, block_copy=False,
                 syncer=False, free_cpu=True, scheme=None):
        if scheme is None:
            scheme = OrderingScheme()
            scheme.uses_block_copy = block_copy
        self.engine = Engine()
        self.disk = Disk(self.engine)
        self.driver = DeviceDriver(self.engine, self.disk,
                                   scheme.driver_policy())
        self.cpu = CPU(self.engine)
        self.costs = CostModel(scale=0.0 if free_cpu else 1.0)
        self.cache = BufferCache(self.engine, self.driver, self.cpu,
                                 self.costs, scheme,
                                 capacity_bytes=capacity_bytes)
        self.syncer = (SyncerDaemon(self.engine, self.cache, sweep_passes=2)
                       if syncer else None)

    def run(self, generator, name="test-proc"):
        return self.engine.run_until(
            self.engine.process(generator, name=name), max_events=2_000_000)


@pytest.fixture
def rig():
    return CacheRig()
