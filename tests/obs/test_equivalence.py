"""Tracing must be free of observer effects.

The determinism contract of ``repro.obs``: a traced run and an untraced run
of the same workload are the *same simulation*.  The tracer only reads the
clock and appends to Python lists, so every simulated timestamp, every
dispatch decision, and the event count must match exactly.  These tests run
each scheme's workload twice -- observe on and off -- and compare the full
driver trace byte for byte.  Tracing sits outside the dispatch loop, so a
traced run also schedules exactly as an untraced one: the engine's in-place
rule runs in both, and a traced cell records the same spans with or without
it.
"""

import hashlib

import pytest

from repro.harness.runner import run_copy, standard_scheme_config
from repro.obs import snapshot
from repro.workloads.trees import TreeSpec

from tests.conftest import (
    SCHEME_FACTORIES,
    heap_only,
    make_machine,
    recording_dispatches,
    run_user,
)


def churn(machine):
    """A workload touching every update point: create/write/link/rename/
    unlink/truncate/mkdir/rmdir plus reads and an fsync."""
    fs = machine.fs

    def user():
        yield from fs.mkdir("/d")
        for index in range(12):
            yield from fs.write_file(f"/d/f{index}", b"x" * (1024 * (1 + index % 4)))
        yield from fs.link("/d/f0", "/d/hard")
        yield from fs.rename("/d/f1", "/d/renamed")
        handle = yield from fs.open("/d/f2")
        yield from fs.fsync(handle)
        yield from fs.close(handle)
        yield from fs.read_file("/d/f3")
        yield from fs.truncate("/d/f4")
        for index in range(5, 10):
            yield from fs.unlink(f"/d/f{index}")
        yield from fs.readdir("/d")
        yield from fs.sync()

    return user


def driver_trace_digest(machine) -> str:
    """A byte-exact digest of the completed request trace."""
    h = hashlib.sha256()
    for request in machine.driver.trace:
        h.update(repr((request.id, request.kind.value, request.lbn,
                       request.nsectors, request.flag,
                       sorted(request.depends_on), request.issuer,
                       request.issue_time, request.dispatch_time,
                       request.complete_time,
                       None if request.data is None
                       else hashlib.sha256(request.data).hexdigest()
                       )).encode())
    return h.hexdigest()


def run_once(scheme_name: str, observe: bool):
    machine = make_machine(scheme_name, free_cpu=False, observe=observe)
    run_user(machine, churn(machine)(), name="user0")
    machine.sync_and_settle()
    return machine


@pytest.mark.parametrize("scheme_name", sorted(SCHEME_FACTORIES))
def test_traced_run_is_simulation_identical(scheme_name):
    untraced = run_once(scheme_name, observe=False)
    traced = run_once(scheme_name, observe=True)

    assert traced.tracer is not None and untraced.tracer is None
    # same simulated history, to the last event and timestamp
    assert traced.engine.events_processed == untraced.engine.events_processed
    assert traced.engine.now == untraced.engine.now
    assert driver_trace_digest(traced) == driver_trace_digest(untraced)
    # and the traced run actually observed something
    assert len(traced.tracer.spans) > 0
    assert snapshot(traced)["engine.events"] > 0


@pytest.mark.parametrize("scheme_name", ["conventional", "softupdates"])
def test_traced_rerun_is_deterministic(scheme_name):
    """Two traced runs produce identical spans (no host-time leakage)."""
    a = run_once(scheme_name, observe=True)
    b = run_once(scheme_name, observe=True)
    spans_a = [(s.name, s.track, s.start, s.end, s.parent) for s in a.tracer.spans]
    spans_b = [(s.name, s.track, s.start, s.end, s.parent) for s in b.tracer.spans]
    assert spans_a == spans_b
    assert snapshot(a) == snapshot(b)


def _span(span):
    return (span.id, span.name, span.cat, span.track, span.start, span.end,
            span.parent, span.args, span.async_id)


def traced_soft_updates_copy():
    """Spans, ``events_processed`` and the number of events that took the
    heap, for one small traced Soft Updates copy cell."""
    config = standard_scheme_config("Soft Updates")
    config.observe = True
    machines = []
    with recording_dispatches() as dispatched:
        run_copy(config, users=2, seed=3, on_machine=machines.append,
                 tree=TreeSpec(files=16, total_bytes=192 * 1024, dirs=3))
    machine, = machines
    return ([_span(span) for span in machine.tracer.spans],
            machine.engine.events_processed, len(dispatched))


def test_traced_spans_do_not_depend_on_the_scheduling_path():
    """The traced cell runs work in place like an untraced one, and records
    the same spans and event count as under the heap-only fixture."""
    spans, events, popped = traced_soft_updates_copy()
    with heap_only():
        heap_spans, heap_events, heap_popped = traced_soft_updates_copy()
    assert len(spans) > 100
    assert heap_popped == heap_events
    assert popped * 2 < events         # most of the traced cell ran in place
    assert spans == heap_spans
    assert events == heap_events
