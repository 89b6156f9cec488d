"""The stepping recorder: ``record_run`` as one ``engine.step()`` per event.

This is how :func:`repro.harness.recording.record_run` ran before its
workload phase went through the engine's dispatch loop, kept as the
reference that loop is compared against (``test_recording_equivalence.py``):
under ``step()`` nothing runs in place, and after every event, once the
victim has finished, the machine is checked for quiescence.  It has no
event budget; the equivalence cells all finish.
"""

from repro.harness.recording import quiescent, recording
from repro.sim.engine import SimulationError


def record_run_stepping(machine, workload, name="victim"):
    with recording(machine) as recorded:
        engine = machine.engine
        process = engine.process(workload, name=name)
        done_seen = False
        while not (process.triggered and quiescent(machine)):
            if engine.pending_events == 0:
                raise SimulationError(
                    "event heap drained before the machine quiesced")
            engine.step()
            if process.triggered and not done_seen:
                if not process.ok:
                    raise process.value
                done_seen = True
                recorded.workload_done = engine.now
        recorded.quiesce_time = engine.now
        recorded.requests_issued = machine.driver.requests_issued
        recorded.events_processed = engine.events_processed
    return recorded
