"""Unit tests for the discrete-event engine and events."""

import pytest

from repro.sim import Engine, SimulationError

from tests.conftest import call_later


@pytest.fixture
def eng():
    return Engine()


class TestClock:
    def test_starts_at_zero(self, eng):
        assert eng.now == 0.0

    def test_timeout_advances_clock(self, eng):
        eng.timeout(2.5)
        eng.run()
        assert eng.now == 2.5

    def test_run_until_absolute_time(self, eng):
        eng.timeout(10.0)
        eng.run(until=4.0)
        assert eng.now == 4.0

    def test_events_fire_in_time_order(self, eng):
        order = []
        call_later(eng, 3.0, order.append, "c")
        call_later(eng, 1.0, order.append, "a")
        call_later(eng, 2.0, order.append, "b")
        eng.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_fire_fifo(self, eng):
        order = []
        for tag in range(5):
            call_later(eng, 1.0, order.append, tag)
        eng.run()
        assert order == [0, 1, 2, 3, 4]

    def test_run_until_in_the_past_never_rewinds_clock(self, eng):
        """run(until=...) with until < now must not move time backwards."""
        eng.timeout(5.0)
        eng.run()
        assert eng.now == 5.0
        eng.run(until=2.0)  # nothing to do; the past stays the past
        assert eng.now == 5.0

    def test_run_advances_clock_when_heap_drains_early(self, eng):
        """If every event lands before *until*, the clock still reaches it."""
        eng.timeout(1.0)
        eng.run(until=7.0)
        assert eng.now == 7.0

    def test_run_until_matches_run_to_semantics(self, eng):
        """run(until=t) and run_to(t) leave identical clock/event state."""
        from repro.sim import Engine

        def make():
            engine = Engine()
            order = []
            for delay in (1.0, 3.0, 3.0, 8.0):
                call_later(engine, delay, order.append, delay)
            return engine, order

        a, seen_a = make()
        a.run(until=3.0)
        b, seen_b = make()
        b.run_to(3.0)
        assert a.now == b.now == 3.0
        assert seen_a == seen_b == [1.0, 3.0, 3.0]
        assert a.events_processed == b.events_processed

    def test_run_without_until_drains_and_keeps_last_time(self, eng):
        eng.timeout(2.0)
        eng.run()
        eng.run()  # empty heap: no-op, clock untouched
        assert eng.now == 2.0

    def test_step_on_empty_heap_raises(self, eng):
        with pytest.raises(SimulationError):
            eng.step()

    def test_max_events_guard(self, eng):
        def forever():
            while True:
                yield eng.timeout(1.0)

        eng.process(forever())
        with pytest.raises(SimulationError, match="max_events"):
            eng.run(max_events=10)


class TestEvent:
    def test_succeed_delivers_value(self, eng):
        ev = eng.event()

        def waiter():
            got = yield ev
            return got

        proc = eng.process(waiter())
        call_later(eng, 1.0, ev.succeed, 42)
        assert eng.run_until(proc) == 42

    def test_double_trigger_rejected(self, eng):
        ev = eng.event()
        ev.succeed(1)
        with pytest.raises(RuntimeError):
            ev.succeed(2)

    def test_fail_raises_in_waiter(self, eng):
        ev = eng.event()

        def waiter():
            with pytest.raises(ValueError):
                yield ev
            return "handled"

        proc = eng.process(waiter())
        call_later(eng, 0.5, ev.fail, ValueError("boom"))
        assert eng.run_until(proc) == "handled"

    def test_fail_requires_exception(self, eng):
        with pytest.raises(TypeError):
            eng.event().fail("not an exception")

    def test_negative_timeout_rejected(self, eng):
        with pytest.raises(ValueError):
            eng.timeout(-1.0)

    def test_late_callback_on_processed_event_still_fires(self, eng):
        ev = eng.event()
        ev.succeed("v")
        eng.run()
        seen = []
        ev._add_callback(lambda e: seen.append(e.value))
        eng.run()
        assert seen == ["v"]

    def test_multiple_waiters_all_resume(self, eng):
        ev = eng.event()
        results = []

        def waiter(tag):
            value = yield ev
            results.append((tag, value))

        procs = [eng.process(waiter(i)) for i in range(3)]
        ev.succeed("x")
        for proc in procs:
            eng.run_until(proc)
        assert sorted(results) == [(0, "x"), (1, "x"), (2, "x")]


class TestRunUntil:
    def test_deadlock_detected(self, eng):
        ev = eng.event()  # never triggered

        def waiter():
            yield ev

        proc = eng.process(waiter())
        with pytest.raises(SimulationError, match="deadlock|drained"):
            eng.run_until(proc)

    def test_returns_process_value(self, eng):
        def worker():
            yield eng.timeout(1.0)
            return "done"

        assert eng.run_until(eng.process(worker())) == "done"
