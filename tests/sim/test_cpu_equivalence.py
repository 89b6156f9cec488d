"""The one-event CPU server against the mutex-and-timeout reference model.

Both CPUs run the same generated schedule of processes that compute and
sleep; every process must see the same clock after every step, finish in the
same order and be charged the same CPU time, bit for bit.  What may differ is
the event count: the reference spends two events per slice, the server one.

The two designs give a slice's completion a different heap sequence number,
which shows only when a *non-CPU* timeout lands on exactly the same instant.
The schedules exclude that case by construction: every duration is a small
integer (exact in floating point) and the n-th sleep of a schedule is longer
by 2**-n, so a sleep's end carries a bit that no CPU completion can carry at
that instant (a completion scheduled after the sleep ended is strictly
later).  Same-instant *arrivals* at the CPU are still covered: all processes
start at t=0, and waiters released together re-queue together.

Those runs use the heap-only fixture (``tests.conftest.heap_only``), which
sends every wake-up through the heap, and record the dispatch stream.  Each
schedule then runs once more without it, where the engine runs charges,
grants and sleeps in place whenever nobody else could run first: that run
must match the reference too, and count the same events as the heap-only
one.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.costs import CostModel
from repro.sim import CPU, Engine, Event, Timeout

from tests.conftest import heap_only, recording_dispatches
from tests.sim.reference_cpu import ReferenceCPU

QUANTUM = 4.0
#: nothing, below the quantum, exactly one, between, exact multiples, above
COMPUTES = [0.0, 1.0, 3.0, 4.0, 6.0, 8.0, 13.0]
SLEEPS = [0.0, 1.0, 2.0, 4.0, 7.0, 10.0]

steps = st.one_of(
    st.tuples(st.just("compute"), st.sampled_from(COMPUTES)),
    st.tuples(st.just("sleep"), st.sampled_from(SLEEPS)))
schedules = st.lists(st.lists(steps, min_size=1, max_size=6),
                     min_size=1, max_size=6)


def untie(schedule):
    """Make the n-th sleep of the schedule 2**-n longer (see the module doc)."""
    sleeps = 0
    programs = []
    for program in schedule:
        untied = []
        for kind, amount in program:
            if kind == "sleep":
                sleeps += 1
                amount += 2.0 ** -sleeps
            untied.append((kind, amount))
        programs.append(untied)
    return programs


def slices_of(programs) -> int:
    return sum(math.ceil(amount / QUANTUM) for program in programs
               for kind, amount in program if kind == "compute")


def run(cpu_class, programs, in_place=False):
    """``(observed, events, dispatched)``; only a heap-only run records
    its dispatch stream."""
    if in_place:
        return _run(cpu_class, programs) + ([],)
    with heap_only(), recording_dispatches() as dispatched:
        return _run(cpu_class, programs) + (dispatched,)


def _run(cpu_class, programs):
    eng = Engine()
    cpu = cpu_class(eng, quantum=QUANTUM)
    stamps = [[] for _ in programs]
    finished = []

    def body(index, program):
        for kind, amount in program:
            if kind == "compute":
                yield from cpu.compute(amount)
            else:
                yield from eng.hold(amount)
            stamps[index].append(eng.now)
        finished.append(index)

    processes = [eng.process(body(index, program), name=f"p{index}")
                 for index, program in enumerate(programs)]
    eng.run(max_events=10_000)
    observed = {"stamps": stamps, "finished": finished, "end": eng.now,
                "cpu_time": [process.cpu_time for process in processes],
                "busy_time": cpu.busy_time}
    return observed, eng.events_processed


@settings(max_examples=300, deadline=None)
@given(schedules)
def test_same_timestamps_order_and_accounting(schedule):
    programs = untie(schedule)
    expected, reference_events, _ = run(ReferenceCPU, programs)
    observed, events, dispatched = run(CPU, programs)
    # the precondition: no sleep ended on the instant of a slice completion
    # (the server's completions are the only plain Events after t=0)
    sleep_ends = {when for when, kind in dispatched if kind is Timeout}
    assert not sleep_ends & {when for when, kind in dispatched
                             if kind is Event and when > 0.0}
    assert observed == expected
    assert reference_events - events == slices_of(programs)
    in_place, in_place_events, _ = run(CPU, programs, in_place=True)
    assert in_place == expected
    assert in_place_events == events


def test_contended_quantum_boundaries_match_by_hand():
    """Two 10-unit jobs and a late 1-unit job on a 4-unit quantum: the late
    arrival (mid-hold, at t=5.5) is served at the next boundary but one."""
    programs = [[("compute", 10.0)], [("compute", 10.0)],
                [("sleep", 5.5), ("compute", 1.0)]]
    observed, _, _ = run(CPU, programs)
    # service order: p0 0-4, p1 4-8, p0 8-12, p2 12-13, p1 13-17, p0 17-19,
    # p1 19-21
    assert observed["stamps"] == [[19.0], [21.0], [5.5, 13.0]]
    assert observed["finished"] == [2, 0, 1]
    assert observed["cpu_time"] == [10.0, 10.0, 1.0]
    assert observed["busy_time"] == 21.0
    assert observed == run(ReferenceCPU, programs)[0]


def test_one_event_per_uncontended_slice():
    """N slices on an idle CPU cost exactly N dispatched events."""
    def events_for(charges):
        eng = Engine()
        cpu = CPU(eng, quantum=QUANTUM)

        def body():
            for amount in charges:
                yield from cpu.compute(amount)

        eng.run_until(eng.process(body()))
        return eng.events_processed

    overhead = events_for([])  # the process's start and completion events
    assert events_for([1.0] * 7) - overhead == 7
    assert events_for([4.0, 9.0, 0.0, 12.0]) - overhead == 1 + 3 + 0 + 3


def test_free_charge_builds_no_generator():
    """A free CPU is a zero-cost model: every charge scales to nothing."""
    eng = Engine()
    cpu = CPU(eng)
    assert cpu.compute(0.0) == ()
    free = CostModel(scale=0.0)
    assert cpu.compute(free.time("create", 5)) == ()
    assert cpu.compute(free.copy_bytes(64 * 1024)) == ()
    assert not eng.pending_events
