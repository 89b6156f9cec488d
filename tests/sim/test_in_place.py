"""The engine's in-place rule: when a wake-up skips the heap, and when not.

A process about to suspend on its own wake-up at ``when`` runs on in place
only when that wake-up is provably the running loop's next dispatch (see
:mod:`repro.sim.engine`).  These tests pin each half of the proof --
``step()``, ``run``'s horizon, the event budget, a tie on the heap, a queued
deferred callback, a later callback of the same event, ``run_until``'s
awaited event, ``run_until_finished``'s stop -- and that nothing observable moves: the clock, the order of
wake-ups and ``events_processed`` read as under the heap-only fixture
(``tests.conftest.heap_only``), where every wake-up takes the heap.
"""

import pytest

from repro.sim import CPU, Engine, Lock, SimulationError, Timeout

from tests.conftest import heap_only, recording_dispatches

FAR = 1e9


def _far(eng):
    """Something else on the heap, long after anything a test does."""
    eng.timeout(FAR)


def test_hold_outside_a_run_loop_takes_the_heap():
    eng = Engine()
    _far(eng)
    held = eng.hold(1.0)
    assert len(held) == 1 and isinstance(held[0], Timeout)
    assert eng.now == 0.0 and eng.pending_events == 2


def test_hold_runs_in_place_strictly_before_the_heap_top():
    eng = Engine()
    eng.timeout(5.0)
    seen = []

    def body():
        seen.append(eng.hold(1.0))        # 1.0 < 5.0: in place
        seen.append(eng.now)
        held = eng.hold(4.0)              # 5.0 ties the heap top
        seen.append(held)
        yield from held
        seen.append(eng.now)

    eng.run_until(eng.process(body()))
    assert seen[0] == () and seen[1] == 1.0
    assert len(seen[2]) == 1 and isinstance(seen[2][0], Timeout)
    assert seen[3] == 5.0


def test_hold_needs_something_else_on_the_heap():
    eng = Engine()
    seen = []

    def body():
        seen.append(eng.hold(1.0))
        yield from seen[-1]

    eng.run_until(eng.process(body()))
    assert len(seen[0]) == 1 and eng.now == 1.0


def test_hold_rejects_a_negative_delay():
    with pytest.raises(ValueError):
        Engine().hold(-1.0)


def test_a_queued_deferred_callback_keeps_the_wake_up_on_the_heap():
    eng = Engine()
    _far(eng)
    done = eng.event().succeed()
    eng.run()                             # *done* is processed now
    eng.timeout(FAR)
    seen = []

    def body():
        done._add_callback(lambda _event: None)   # queued, not yet run
        seen.append(eng.hold(1.0))
        yield from seen[-1]
        seen.append(eng.hold(1.0))        # the queue has drained since

    eng.run_until(eng.process(body()))
    assert len(seen[0]) == 1 and seen[1] == ()


def test_step_never_runs_anything_in_place():
    """One event per ``step()``: the stepping recorder
    (``tests/harness/reference_recording.py``) and ``record_run``'s
    quiesce tail check for quiescence between any two events."""
    eng = Engine()
    cpu = CPU(eng, quantum=10.0)
    lock = Lock(eng)
    _far(eng)
    stamps = []

    def body():
        yield from lock.acquire()
        stamps.append(eng.now)
        yield from cpu.compute(2.0)
        stamps.append(eng.now)
        yield from eng.hold(3.0)
        stamps.append(eng.now)
        lock.release()

    proc = eng.process(body())
    steps = 0
    while not proc.processed:
        before = eng.events_processed
        eng.step()
        steps += 1
        assert eng.events_processed == before + 1
    # start, grant, slice, hold, completion: one step each
    assert steps == 5 and stamps == [0.0, 2.0, 5.0]


def test_run_until_finished_stops_where_stepping_would():
    """The loop runs the process's charges and holds in place and stops
    after the dispatch it finished in: its completion event still queued,
    and the clock, heap and event count what stepping to
    ``process.triggered`` leaves."""
    def build():
        eng = Engine()
        cpu = CPU(eng, quantum=10.0)
        _far(eng)

        def body():
            yield from cpu.compute(2.0)
            yield from eng.hold(3.0)
            return "done"

        return eng, eng.process(body())

    eng, proc = build()
    with recording_dispatches() as dispatched:
        eng.run_until_finished(proc)
    stepped, stepped_proc = build()
    while not stepped_proc.triggered:
        stepped.step()
    assert proc.triggered and not proc.processed and proc.value == "done"
    assert (eng.now, eng.events_processed, eng.pending_events) == (
        stepped.now, stepped.events_processed, stepped.pending_events)
    # start, slice, hold: only the start came off the heap
    assert len(dispatched) == 1 and eng.events_processed == 3


def test_the_heap_only_fixture_turns_the_path_off():
    eng = Engine()
    _far(eng)
    seen = []

    def body():
        seen.append(eng.hold(1.0))
        yield from seen[-1]

    with heap_only():
        eng.run_until(eng.process(body()))
    assert len(seen[0]) == 1 and eng.now == 1.0


@pytest.mark.parametrize("until, wakes_at", [(10.5, 11.0), (10.0, 10.5)])
def test_run_until_a_time_never_carries_a_process_past_it(until, wakes_at):
    eng = Engine()
    cpu = CPU(eng, quantum=10.0)
    eng.timeout(100.0)
    stamps = []

    def body():
        for _ in range(100):
            yield from eng.hold(0.5)
            yield from cpu.compute(0.5)
            stamps.append(eng.now)

    eng.process(body())
    eng.run(until=until)
    assert eng.now == until
    assert stamps == [float(t) for t in range(1, 11)]
    # the process sleeps on the heap, on its first wake-up after *until*
    assert eng.next_event_time == wakes_at


def test_a_spin_on_compute_still_trips_the_event_budget():
    """The naive fast path would hang here: the only other event is 10**9
    seconds away, so every charge would run in place.  (The spin is bounded
    at 1000 seconds so that path fails this test rather than hanging it.)"""
    def spin():
        eng = Engine()
        cpu = CPU(eng)
        _far(eng)

        def body():
            for _ in range(1000):
                yield from cpu.compute(1.0)

        eng.process(body())
        with pytest.raises(SimulationError, match="max_events=1000"):
            eng.run(max_events=1000)
        return eng.now, eng.events_processed, cpu.busy_time

    in_place = spin()
    assert in_place[0] < 10.0 and in_place[1] == 1000
    with heap_only():
        assert in_place == spin()


def test_run_until_event_budget_counts_in_place_work():
    eng = Engine()
    cpu = CPU(eng, quantum=1.0)
    _far(eng)

    def body():
        yield from cpu.compute(50.0)

    with pytest.raises(SimulationError, match="max_events=20"):
        eng.run_until(eng.process(body()), max_events=20)
    assert eng.events_processed == 20


def test_an_uncontended_grant_runs_in_place_only_under_the_proof():
    eng = Engine()
    lock = Lock(eng)
    _far(eng)
    grants = []

    def holder():
        yield from eng.hold(0.25)         # past the waiter's start at 0.0
        grants.append(lock.acquire())     # uncontended, heap top at 1.5
        yield from grants[-1]
        yield from eng.hold(1.0)
        lock.release()
        eng.event().succeed()             # something else at this instant
        grants.append(lock.acquire())     # uncontended, but a tie at now
        yield from grants[-1]
        yield from eng.hold(1.0)
        lock.release()

    def waiter():
        yield from eng.hold(1.5)
        grants.append(lock.acquire())     # contended
        yield from grants[-1]
        lock.release()

    eng.process(holder())
    eng.process(waiter())
    eng.run(until=10.0)
    assert grants[0] == ()
    assert len(grants[1]) == 1 and grants[1][0].processed
    assert len(grants[2]) == 1 and grants[2][0].processed
    assert not lock.locked


def _two_sleepers():
    """Two processes woken by one event at t=2, holding 0.5 and 1.0."""
    eng = Engine()
    _far(eng)
    gate = eng.event()
    held, woke = {}, []

    def sleeper(name, delay):
        yield gate
        held[name] = eng.hold(delay)
        yield from held[name]
        woke.append((name, eng.now))

    eng.process(sleeper("first", 0.5))
    eng.process(sleeper("second", 1.0))
    eng.call_later(2.0, gate.succeed)
    eng.run(until=10.0)
    return held, woke


def test_only_an_events_last_callback_runs_in_place():
    """Two processes wake on one event: the first must not run on in place
    and leave the second to wake half a second late."""
    held, woke = _two_sleepers()
    assert len(held["first"]) == 1
    assert woke == [("first", 2.5), ("second", 3.0)]
    with heap_only():
        assert woke == _two_sleepers()[1]


def test_run_until_stops_at_its_event_without_running_its_waiters_on():
    eng = Engine()
    _far(eng)
    awaited = eng.timeout(2.0)
    seen = []

    def waiter():
        yield awaited
        seen.append(eng.hold(1.0))
        yield from seen[-1]

    eng.process(waiter())
    eng.run_until(awaited)
    assert eng.now == 2.0 and len(seen[0]) == 1


def test_run_until_an_event_already_processed_dispatches_nothing():
    """The late subscriptions it flushes resume their processes, but those
    must not run on: the loop dispatches nothing."""
    eng = Engine()
    _far(eng)
    done = eng.event().succeed()
    eng.run(until=0.0)
    seen = []

    def late(_event):
        seen.append(eng.hold(1.0))

    done._add_callback(late)
    eng.run_until(done)
    assert eng.now == 0.0 and len(seen[0]) == 1
