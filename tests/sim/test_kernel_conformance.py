"""The event kernel's contract, pinned on :class:`Engine` itself.

There is one event loop (a binary heap inside ``Engine``); these tests fix
what no simulated workload may ever see change: event order at equal
timestamps (FIFO by schedule sequence), the clock-leave semantics of every
run-loop flavour, error detection, and ``events_processed`` accounting.
The scripted schedule's trace and dispatch stream are golden values
recorded from the reference heap loop before the swappable-kernel layer
was folded back into the engine, so a rewrite of the loop has to reproduce
them exactly.
"""

import ast
from pathlib import Path

import pytest

import repro.sim.engine
from repro.sim import Engine, SimulationError

from tests.conftest import call_later, recording_dispatches


# ---------------------------------------------------------------------------
# a scripted schedule exercising every enqueue path with equal-time ties
# ---------------------------------------------------------------------------

def scripted_run():
    """Run a fixed mixed workload; return (engine, observable trace).

    The script mixes processes, awaited timeouts, bare (never-awaited)
    timeouts, ``call_later`` timers and event wakes, with several events
    landing at the same instant -- the FIFO tie-break is where a changed
    event loop is most likely to diverge.
    """
    eng = Engine()
    trace = []
    gate = eng.event()

    def ticker(tag, period, count):
        for index in range(count):
            yield eng.timeout(period)
            trace.append((tag, index, eng.now))

    def opener():
        yield eng.timeout(3.0)
        trace.append(("open", eng.now))
        gate.succeed("opened")

    def waiter(tag):
        value = yield gate
        trace.append((tag, value, eng.now))
        yield eng.timeout(0.5)
        trace.append((tag, "after", eng.now))

    eng.process(ticker("a", 1.0, 6), name="a")
    eng.process(ticker("b", 1.5, 4), name="b")
    eng.process(opener(), name="opener")
    for index in range(3):
        eng.process(waiter(f"w{index}"), name=f"w{index}")
    for delay in (2.0, 2.0, 2.0, 4.25):
        call_later(eng, delay, lambda d=delay: trace.append(
            ("timer", d, eng.now)))
    eng.timeout(2.5)   # bare timeout: scheduled, never awaited
    eng.timeout(10.0)  # bare timeout landing after everything else
    eng.run()
    return eng, trace


GOLDEN_TRACE = [
    ("a", 0, 1.0), ("b", 0, 1.5), ("timer", 2.0, 2.0), ("timer", 2.0, 2.0),
    ("timer", 2.0, 2.0), ("a", 1, 2.0), ("open", 3.0), ("b", 1, 3.0),
    ("a", 2, 3.0), ("w0", "opened", 3.0), ("w1", "opened", 3.0),
    ("w2", "opened", 3.0), ("w0", "after", 3.5), ("w1", "after", 3.5),
    ("w2", "after", 3.5), ("a", 3, 4.0), ("timer", 4.25, 4.25),
    ("b", 2, 4.5), ("a", 4, 5.0), ("b", 3, 6.0), ("a", 5, 6.0)]

GOLDEN_DISPATCH = (
    [(0.0, "Event")] * 6
    + [(1.0, "Timeout"), (1.5, "Timeout")] + [(2.0, "Timeout")] * 4
    + [(2.5, "Timeout")] + [(3.0, "Timeout")] * 3
    + [(3.0, "Event"), (3.0, "Process")] + [(3.5, "Timeout")] * 3
    + [(3.5, "Process")] * 3
    + [(4.0, "Timeout"), (4.25, "Timeout"), (4.5, "Timeout"),
       (5.0, "Timeout"), (6.0, "Timeout"), (6.0, "Timeout"),
       (6.0, "Process"), (6.0, "Process"), (10.0, "Timeout")])


class TestScriptedEquivalence:
    def test_trace_identical_to_reference(self):
        eng, trace = scripted_run()
        assert trace == GOLDEN_TRACE
        assert eng.now == 10.0
        assert eng.events_processed == 33

    def test_dispatch_stream_is_the_golden_one(self):
        """Every dispatched event, as (timestamp, event type), and recording
        them changes nothing else."""
        with recording_dispatches() as dispatched:
            eng, trace = scripted_run()
        assert [(when, kind.__name__) for when, kind in dispatched] \
            == GOLDEN_DISPATCH
        assert trace == GOLDEN_TRACE
        assert eng.events_processed == len(dispatched)

    def test_determinism_across_repeated_runs(self):
        eng_a, trace_a = scripted_run()
        eng_b, trace_b = scripted_run()
        assert trace_a == trace_b
        assert eng_a.now == eng_b.now
        assert eng_a.events_processed == eng_b.events_processed

    def test_single_stepping_matches_run(self):
        """step() one event at a time reaches the same end state as one
        run() call, each step landing on the heap head's time."""
        eng = Engine()
        trace = []
        for delay in (3.0, 1.0, 2.0, 2.0, 1.0):
            call_later(eng, delay, lambda d=delay: trace.append((d, eng.now)))
        steps = 0
        while eng.pending_events:
            upcoming = eng._heap[0][0]
            eng.step()
            assert eng.now == upcoming
            steps += 1
        assert steps == 5
        assert trace == [(1.0, 1.0), (1.0, 1.0), (2.0, 2.0), (2.0, 2.0),
                         (3.0, 3.0)]
        assert eng.events_processed == 5


class TestBasicSemantics:
    def test_equal_time_events_fire_fifo(self):
        eng = Engine()
        order = []
        for tag in range(8):
            call_later(eng, 1.0, order.append, tag)
        eng.run()
        assert order == list(range(8))

    def test_time_went_backwards_detected_by_run(self):
        eng = Engine()
        eng.timeout(1.0)
        eng.now = 5.0  # corrupt the clock past the scheduled event
        with pytest.raises(SimulationError, match="backwards"):
            eng.run()

    def test_time_went_backwards_detected_by_step(self):
        eng = Engine()
        eng.timeout(1.0)
        eng.now = 5.0
        with pytest.raises(SimulationError, match="backwards"):
            eng.step()

    def test_step_on_empty_heap_raises(self):
        with pytest.raises(SimulationError, match="empty"):
            Engine().step()

    def test_deadlock_detected_by_run_until(self):
        eng = Engine()
        ev = eng.event()  # never triggered

        def waiter():
            yield ev

        with pytest.raises(SimulationError, match="deadlock|drained"):
            eng.run_until(eng.process(waiter()))


class TestClockLeaveSemantics:
    def test_run_drains_and_keeps_last_event_time(self):
        eng = Engine()
        eng.timeout(2.0)
        eng.run()
        assert eng.now == 2.0
        eng.run()  # empty heap: no-op
        assert eng.now == 2.0

    def test_run_until_horizon_reached_past_drain(self):
        eng = Engine()
        eng.timeout(1.0)
        eng.run(until=7.0)
        assert eng.now == 7.0

    def test_run_never_rewinds_clock(self):
        eng = Engine()
        eng.timeout(5.0)
        eng.run()
        eng.run(until=2.0)
        assert eng.now == 5.0
        eng.run_to(2.0)
        assert eng.now == 5.0

    def test_run_stops_before_events_past_horizon(self):
        eng = Engine()
        seen = []
        for delay in (1.0, 4.0, 4.0, 9.0):
            call_later(eng, delay, seen.append, delay)
        eng.run(until=4.0)
        assert seen == [1.0, 4.0, 4.0]
        assert eng.now == 4.0
        assert eng.pending_events == 1

    def test_run_to_matches_run_until_state(self):
        def build():
            eng = Engine()
            seen = []
            for delay in (1.0, 3.0, 3.0, 8.0):
                call_later(eng, delay, seen.append, delay)
            return eng, seen

        a, seen_a = build()
        a.run(until=3.0)
        b, seen_b = build()
        b.run_to(3.0)
        assert a.now == b.now == 3.0
        assert seen_a == seen_b == [1.0, 3.0, 3.0]
        assert a.events_processed == b.events_processed

    def test_run_until_leaves_clock_at_completion(self):
        eng = Engine()

        def worker():
            yield eng.timeout(1.5)
            return "done"

        proc = eng.process(worker())
        eng.timeout(9.0)  # later event must not be dispatched
        assert eng.run_until(proc) == "done"
        assert eng.now == 1.5
        assert eng.pending_events == 1


def test_only_the_dispatch_loop_and_step_pop_the_heap():
    """``run`` and ``run_until`` are entry points over one dispatch loop:
    a second inlined copy of it would pop the heap itself."""
    tree = ast.parse(Path(repro.sim.engine.__file__).read_text())
    poppers = set()
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        for node in ast.walk(function):
            if isinstance(node, ast.Call) and "heappop" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None)):
                poppers.add(function.name)
    assert poppers == {"_dispatch", "step"}
