"""``record_run`` through the dispatch loop == the stepping recorder.

The workload phase of a recording runs through
:meth:`~repro.sim.engine.Engine.run_until_finished`, where CPU charges,
lock grants and drive holds run in place; only the quiesce tail steps.
Every registered scheme, on ``microbench`` and ``churn``, on a perfect
disk and under ``transient`` faults, must record exactly what one
``engine.step()`` per event records (``reference_recording.py``): every
media-log record, the survivors, both instants and both counters.
"""

import pytest

from repro.harness.recording import quiescent, record_run
from repro.integrity.explorer import build_machine, build_workload
from repro.ordering.registry import scheme_classes
from repro.sim.engine import SimulationError
from repro.sim.process import ProcessCrashed
from tests.conftest import recording_dispatches
from tests.harness.reference_recording import record_run_stepping

SCHEMES = sorted(scheme_classes())


def _fingerprint(recorded):
    return ([(w.lbn, w.nsectors, w.transfer_start, w.end, w.durable, w.data)
             for w in recorded.media_log.entries],
            recorded.media_log.survivors,
            recorded.workload_done, recorded.quiesce_time,
            recorded.requests_issued, recorded.events_processed)


def _both(scheme, victim, fault_profile=None):
    """(dispatch-loop fingerprint, stepping fingerprint) of *victim*, a
    ``machine -> generator`` factory, each on a fresh machine."""
    prints = []
    for record in (record_run, record_run_stepping):
        machine = build_machine(scheme, fault_profile=fault_profile,
                                fault_seed=3)
        prints.append(_fingerprint(record(machine, victim(machine))))
    return prints


@pytest.mark.parametrize("fault_profile", [None, "transient"])
@pytest.mark.parametrize("workload", ["microbench", "churn"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_recording_equals_the_stepping_loop(scheme, workload,
                                            fault_profile):
    looped, stepped = _both(
        scheme, lambda m: build_workload(m, workload, 0, None),
        fault_profile)
    assert looped[0], "the victim must reach the disk"
    assert looped == stepped


def test_the_workload_phase_runs_in_place():
    """The equivalence above is not vacuous: events run in place during a
    recording (counted, never popped off the heap)."""
    machine = build_machine("conventional")
    start = machine.engine.events_processed
    with recording_dispatches() as dispatched:
        recorded = record_run(machine, build_workload(machine, "microbench",
                                                      0, 8))
    assert len(dispatched) < recorded.events_processed - start


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_victim_that_leaves_the_machine_quiescent(scheme):
    """Nothing to settle: both stop on the victim's last dispatch, its
    completion event still queued."""
    def idle(machine):
        yield machine.engine.timeout(0.25)

    looped, stepped = _both(scheme, idle)
    assert looped == stepped
    machine = build_machine(scheme)
    before = machine.engine.pending_events
    recorded = record_run(machine, idle(machine))
    assert quiescent(machine)
    assert recorded.workload_done == recorded.quiesce_time == 0.25
    # the victim's completion event is on the heap beside the daemons'
    assert machine.engine.pending_events == before + 1


def _needed_events():
    machine = build_machine("conventional")
    start = machine.engine.events_processed
    recorded = record_run(machine, build_workload(machine, "microbench",
                                                  0, 8))
    return recorded.events_processed - start


def test_max_events_counts_every_event_of_the_run():
    """Like ``Engine.run``: a budget of exactly the events the run needs
    passes, one fewer raises."""
    needed = _needed_events()
    machine = build_machine("conventional")
    record_run(machine, build_workload(machine, "microbench", 0, 8),
               max_events=needed)
    machine = build_machine("conventional")
    with pytest.raises(SimulationError,
                       match=f"recording exceeded max_events={needed - 1}$"):
        record_run(machine, build_workload(machine, "microbench", 0, 8),
                   max_events=needed - 1)


def test_a_stuck_victim_exhausts_the_budget():
    """The daemons keep the heap busy, so a victim that never finishes
    runs into the budget inside the workload phase."""
    machine = build_machine("softupdates")

    def stuck():
        yield machine.engine.event()

    with pytest.raises(SimulationError,
                       match="recording exceeded max_events=500$"):
        record_run(machine, stuck(), max_events=500)


def test_a_drained_heap_is_reported():
    machine = build_machine("noorder")
    machine.engine._heap.clear()  # no daemons, nothing left to dispatch

    def stuck():
        yield machine.engine.event()

    with pytest.raises(SimulationError,
                       match="event heap drained before the machine "
                             "quiesced"):
        record_run(machine, stuck())


def test_a_crashed_victim_raises_its_crash():
    machine = build_machine("conventional")

    def victim():
        yield from build_workload(machine, "microbench", 0, 2)
        raise KeyError("victim bug")

    with pytest.raises(ProcessCrashed, match="victim bug"):
        record_run(machine, victim())
