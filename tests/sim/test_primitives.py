"""Unit tests for Lock, WaitQueue and CPU."""

import pytest

from repro.costs import CostModel
from repro.sim import CPU, Engine, Lock, WaitQueue


@pytest.fixture
def eng():
    return Engine()


class TestLock:
    def test_uncontended_acquire_is_instant(self, eng):
        lock = Lock(eng)

        def worker():
            yield from lock.acquire()
            lock.release()
            return eng.now

        assert eng.run_until(eng.process(worker())) == 0.0

    def test_mutual_exclusion(self, eng):
        lock = Lock(eng)
        trace = []

        def worker(tag):
            yield from lock.acquire()
            trace.append(("enter", tag, eng.now))
            yield eng.timeout(1.0)
            trace.append(("exit", tag, eng.now))
            lock.release()

        for proc in [eng.process(worker(i)) for i in range(3)]:
            eng.run_until(proc)
        # critical sections must not overlap
        assert trace == [
            ("enter", 0, 0.0), ("exit", 0, 1.0),
            ("enter", 1, 1.0), ("exit", 1, 2.0),
            ("enter", 2, 2.0), ("exit", 2, 3.0),
        ]

    def test_fifo_handoff(self, eng):
        lock = Lock(eng)
        order = []

        def worker(tag, delay):
            yield eng.timeout(delay)
            yield from lock.acquire()
            order.append(tag)
            yield eng.timeout(10.0)
            lock.release()

        for proc in [eng.process(worker(t, 0.1 * t)) for t in range(4)]:
            eng.run_until(proc)
        assert order == [0, 1, 2, 3]

    def test_handoff_to_three_waiters_is_fifo(self, eng):
        lock = Lock(eng)
        order = []

        def holder():
            yield from lock.acquire()
            yield eng.timeout(1.0)
            lock.release()

        def waiter(tag):
            yield from lock.acquire()
            order.append((tag, eng.now))
            lock.release()

        for proc in ([eng.process(holder())]
                     + [eng.process(waiter(tag)) for tag in "abc"]):
            eng.run_until(proc)
        assert order == [("a", 1.0), ("b", 1.0), ("c", 1.0)]
        assert not lock.locked and not lock._waiters

    def test_release_unlocked_raises(self, eng):
        with pytest.raises(RuntimeError):
            Lock(eng).release()


class TestWaitQueue:
    def test_broadcast_wakes_three_sleepers_fifo(self, eng):
        """Woken in the order they slept; one that sleeps again at once
        waits for the next broadcast, not this one."""
        wq = WaitQueue(eng)
        woken = []

        def sleeper(tag):
            yield wq.wait()
            woken.append(tag)
            yield wq.wait()
            woken.append(tag.upper())

        procs = [eng.process(sleeper(tag)) for tag in "abc"]
        eng.run()
        assert wq.broadcast() == 3
        eng.run()
        assert woken == ["a", "b", "c"] and len(wq) == 3
        assert wq.broadcast() == 3
        for proc in procs:
            eng.run_until(proc)
        assert woken == ["a", "b", "c", "A", "B", "C"] and len(wq) == 0

    def test_signal_wakes_one(self, eng):
        wq = WaitQueue(eng)
        woken = []

        def sleeper(tag):
            yield wq.wait()
            woken.append(tag)

        procs = [eng.process(sleeper(i)) for i in range(3)]
        eng.run()
        assert wq.signal() is True
        eng.run()
        assert woken == [0]
        assert wq.broadcast() == 2
        for proc in procs:
            eng.run_until(proc)
        assert woken == [0, 1, 2]

    def test_signal_empty_returns_false(self, eng):
        assert WaitQueue(eng).signal() is False


class TestCPU:
    def test_compute_consumes_time_and_charges_process(self, eng):
        cpu = CPU(eng)

        def worker():
            yield from cpu.compute(0.030)

        proc = eng.process(worker())
        eng.run_until(proc)
        assert eng.now == pytest.approx(0.030)
        assert proc.cpu_time == pytest.approx(0.030)
        assert cpu.busy_time == pytest.approx(0.030)

    def test_single_server_serialises(self, eng):
        cpu = CPU(eng)

        def worker():
            yield from cpu.compute(0.050)

        procs = [eng.process(worker()) for _ in range(2)]
        for proc in procs:
            eng.run_until(proc)
        assert eng.now == pytest.approx(0.100)

    def test_quantum_interleaves_fairly(self, eng):
        cpu = CPU(eng, quantum=0.010)
        finish = {}

        def worker(tag, amount):
            yield from cpu.compute(amount)
            finish[tag] = eng.now

        for proc in [eng.process(worker("long", 0.100)),
                     eng.process(worker("short", 0.010))]:
            eng.run_until(proc)
        # the short job must not wait for the whole long job
        assert finish["short"] < 0.100

    def test_disabled_cpu_is_free(self, eng):
        """A free CPU is a zero-cost model (``Machine.run_instantly``'s
        ``costs.scale = 0``), not a switch on the CPU."""
        cpu = CPU(eng)
        free = CostModel(scale=0.0)

        def worker():
            yield from cpu.compute(free.time("create", 5))

        proc = eng.process(worker())
        eng.run_until(proc)
        assert eng.now == 0.0
        assert proc.cpu_time == 0.0

    def test_negative_compute_rejected(self, eng):
        cpu = CPU(eng)

        def worker():
            yield from cpu.compute(-1.0)

        from repro.sim import ProcessCrashed
        with pytest.raises(ProcessCrashed):
            eng.run_until(eng.process(worker()))
