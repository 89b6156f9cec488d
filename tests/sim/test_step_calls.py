"""The per-step work of the syscall path's primitives, pinned by call counts.

A CPU charge that queues behind another process is one ``CPUSlice`` event:
no generator is built for it, and however many quanta it spans, its
process resumes once.  A buffer-cache hit is one generator (``bread``) and
a release is one frame.  These tests count the Python frames entered
(``sys.setprofile`` "call" events; a generator resume is one) and the C
calls made from inside a package while the step runs.
"""

import inspect
import os
import sys

import repro.cache
import repro.sim
from repro.sim import CPU, Engine
from repro.sim.cpu import CPUSlice

from tests.cache.conftest import CacheRig

SIM_DIR = os.path.dirname(repro.sim.__file__) + os.sep
CACHE_DIR = os.path.dirname(repro.cache.__file__) + os.sep


class Calls:
    """Frames entered and C calls made from code under *directory*."""

    def __init__(self, directory):
        self.directory = directory
        self.frames = []
        self.c_calls = 0

    def __enter__(self):
        def profile(frame, event, arg):
            code = frame.f_code
            if not code.co_filename.startswith(self.directory):
                return
            if event == "call":
                self.frames.append(code)
            elif event == "c_call":
                self.c_calls += 1
        sys.setprofile(profile)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)

    @property
    def names(self):
        """``module.function`` of every frame entered, in order."""
        return [os.path.basename(code.co_filename)[:-3] + "." + code.co_name
                for code in self.frames]

    @property
    def generators_entered(self):
        return [name for name, code in zip(self.names, self.frames)
                if code.co_flags & inspect.CO_GENERATOR]

    def entered(self, name):
        return self.names.count(name)


def test_a_contended_one_slice_charge_builds_no_generator():
    eng = Engine()
    cpu = CPU(eng, quantum=4.0)
    charged = []

    def holder():
        yield from cpu.compute(3.0)

    def waiter():
        charged.append(cpu.compute(1.0))     # the CPU is busy: it queues
        yield from charged[-1]

    eng.process(holder())
    eng.process(waiter())
    with Calls(SIM_DIR) as calls:
        eng.run()
    slice_event, = charged[0]
    assert type(slice_event) is CPUSlice and slice_event.processed
    assert calls.generators_entered == []
    # two slices dispatched, one after the other
    assert calls.entered("cpu._process") == 2
    assert eng.now == 4.0 and cpu.busy_time == 4.0


def test_a_three_quantum_charge_resumes_its_process_once():
    eng = Engine()
    cpu = CPU(eng, quantum=4.0)
    eng.timeout(5.0)                     # the charge cannot run in place

    def body():
        yield from cpu.compute(12.0)

    process = eng.process(body())
    with Calls(SIM_DIR) as calls:
        eng.run_until(process)
    # the start, then once after the last slice
    assert calls.entered("process._resume") == 2
    assert calls.entered("cpu._process") == 3
    assert eng.now == 12.0 and process.cpu_time == 12.0
    # start, three slices, the other timeout, completion: one event each
    assert eng.events_processed == 6


def test_a_bread_hit_is_one_generator_and_a_release_one_frame():
    rig = CacheRig(free_cpu=False)
    cache = rig.cache
    rig.engine.timeout(1e9)              # lets the getblk charge run in place
    counted = []

    def body():
        buf = yield from cache.bread(64, 1024)   # the miss fills it
        cache.brelse(buf)
        with Calls(CACHE_DIR) as calls:
            buf = yield from cache.bread(64, 1024)
            cache.brelse(buf)
        counted.append(calls)

    hits = cache.hits
    rig.run(body())
    calls, = counted
    assert cache.hits == hits + 1
    assert calls.names == ["buffercache.bread", "buffercache.brelse"]
    # dict.get, lru.pop on the hit; lru.move_to_end on the release
    assert calls.c_calls <= 3
