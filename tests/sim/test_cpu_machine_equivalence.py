"""Whole-machine CPU equivalence: scheme x {copy, remove} x CPU model.

The CPU sits under every syscall path, so swapping the shipped one-event
server for the mutex-and-timeout reference model must leave every simulated
observable untouched: the table-row measurements, each disk request's issue,
dispatch and completion instants, and the bytes on the disk at the end.  Only
the number of events it took to get there may differ.

The same observables, the event count included, must not move under the
heap-only fixture (``tests.conftest.heap_only``) either: it sends every
wake-up through the heap, so the run without it is the engine running CPU
charges, uncontended grants and drive holds in place against the run that
does not.
"""

from dataclasses import asdict

import pytest

from repro.harness.runner import run_copy, run_remove, standard_scheme_config
from repro.ordering.registry import REGISTRY
from repro.sim import CPU
from repro.sim.cpu import CPUSlice
from repro.workloads.trees import TreeSpec

from tests.conftest import heap_only
from tests.sim.reference_cpu import ReferenceCPU

SMALL_TREE = TreeSpec(files=24, total_bytes=256 * 1024, dirs=4)
SCHEMES = [info.display_name for info in REGISTRY.values()]
#: RunResult fields that describe the simulator, not the simulated machine
HOST_FIELDS = ("sim_events", "wall_seconds")
#: events of the three-user Soft Updates copy cell below, plus ~5 % headroom
#: (8 370 at this commit; the reference CPU needs 13 888)
SOFT_UPDATES_COPY_EVENT_CEILING = 8_800


def observe(runner, scheme):
    machines = []
    result = runner(standard_scheme_config(scheme), users=3, tree=SMALL_TREE,
                    seed=7, on_machine=machines.append)
    machine, = machines
    row = {name: value for name, value in asdict(result).items()
           if name not in HOST_FIELDS}
    requests = [(r.id, r.kind.name, r.lbn, r.nsectors, r.issue_time,
                 r.dispatch_time, r.complete_time)
                for r in machine.driver.trace]
    return {"row": row, "requests": requests, "now": machine.engine.now,
            "busy_time": machine.cpu.busy_time,
            "digest": machine.disk.storage.digest()}, result.sim_events


@pytest.mark.parametrize("runner", [run_copy, run_remove],
                         ids=["copy", "remove"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_reference_cpu_changes_nothing_simulated(monkeypatch, scheme, runner):
    observed, events = observe(runner, scheme)
    monkeypatch.setattr("repro.machine.CPU", ReferenceCPU)
    expected, reference_events = observe(runner, scheme)
    assert observed["requests"], "the cell must actually reach the disk"
    assert observed["row"]["cpu_time"] > 0.0
    assert observed == expected
    assert events < reference_events


def test_soft_updates_copy_cell_event_ceiling(monkeypatch):
    """Events creeping back into the compute path fail here, not at the next
    benchmark run: the reference CPU's two events per charge are over it."""
    _, events = observe(run_copy, "Soft Updates")
    assert events <= SOFT_UPDATES_COPY_EVENT_CEILING
    monkeypatch.setattr("repro.machine.CPU", ReferenceCPU)
    _, reference_events = observe(run_copy, "Soft Updates")
    assert reference_events > SOFT_UPDATES_COPY_EVENT_CEILING


@pytest.mark.parametrize("runner", [run_copy, run_remove],
                         ids=["copy", "remove"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_running_in_place_changes_nothing(scheme, runner):
    observed, events = observe(runner, scheme)
    with heap_only():
        expected, heap_events = observe(runner, scheme)
    assert observed == expected
    assert events == heap_events


def test_soft_updates_copy_cell_runs_most_charges_in_place(monkeypatch):
    """A charge that cannot run in place builds one ``CPUSlice`` event;
    counting those pins that the path fires at all.  1 933 of 7 907
    charges build one, and 5 344 under the heap-only fixture (the rest are
    free either way: the populate's and zero-second charges)."""
    calls = {"compute": 0, "slices": 0}
    compute, slice_init = CPU.compute, CPUSlice.__init__

    def counted_compute(self, seconds):
        calls["compute"] += 1
        return compute(self, seconds)

    def counted_slice(self, cpu, seconds):
        calls["slices"] += 1
        slice_init(self, cpu, seconds)

    monkeypatch.setattr(CPU, "compute", counted_compute)
    monkeypatch.setattr(CPUSlice, "__init__", counted_slice)
    observe(run_copy, "Soft Updates")
    assert calls["compute"] > 1000
    # under a third fall back
    assert 0 < calls["slices"] and calls["slices"] * 3 < calls["compute"]
