"""Unit tests for the span tracer, the metrics table and the exports."""

import functools
import json

import pytest

from repro.harness.parallel import run_grid
from repro.obs import (
    METRICS,
    TIMINGS,
    Tracer,
    flame_summary,
    trace_events,
    validate_trace_events,
)
from repro.obs.export import TraceFormatError
from repro.sim import Engine
from tests.conftest import make_machine, run_user
from tests.obs.test_equivalence import churn


def make_engine_at(now: float = 0.0) -> Engine:
    engine = Engine()
    engine.now = now
    return engine


class TestTracer:
    def test_begin_end_records_interval(self):
        engine = make_engine_at(1.0)
        tracer = Tracer(engine)
        span = tracer.begin("op", "test", track="t")
        assert not span.closed
        engine.now = 3.5
        tracer.end(span)
        assert span.closed
        assert span.duration == pytest.approx(2.5)

    def test_nesting_sets_parent_on_same_track(self):
        engine = make_engine_at()
        tracer = Tracer(engine)
        outer = tracer.begin("outer", "test", track="t")
        inner = tracer.begin("inner", "test", track="t")
        assert inner.parent == outer.id
        assert tracer.current("t") == inner.id
        tracer.end(inner)
        assert tracer.current("t") == outer.id
        tracer.end(outer)
        assert tracer.current("t") is None

    def test_tracks_are_independent(self):
        engine = make_engine_at()
        tracer = Tracer(engine)
        a = tracer.begin("a", "test", track="one")
        b = tracer.begin("b", "test", track="two")
        assert b.parent is None
        assert tracer.current("one") == a.id

    def test_end_closes_orphaned_children(self):
        engine = make_engine_at()
        tracer = Tracer(engine)
        outer = tracer.begin("outer", "test", track="t")
        inner = tracer.begin("inner", "test", track="t")
        engine.now = 2.0
        tracer.end(outer)  # unwinds past the still-open inner
        assert inner.closed and inner.end == 2.0
        assert tracer.current("t") is None

    def test_record_retrospective(self):
        engine = make_engine_at(9.0)
        tracer = Tracer(engine)
        span = tracer.record("late", "test", 1.0, 2.0, "t")
        assert span.closed and span.duration == pytest.approx(1.0)
        assert tracer.current("t") is None  # never entered the stack

    def test_record_async_keeps_id(self):
        engine = make_engine_at()
        tracer = Tracer(engine)
        span = tracer.record_async("q", "driver", 0.0, 1.0, "t", async_id=7)
        assert span.async_id == 7

    def test_span_context_manager(self):
        engine = make_engine_at()
        tracer = Tracer(engine)
        with tracer.span("cm", "test", track="t"):
            engine.now = 1.0
        (span,) = tracer.closed_spans()
        assert span.duration == pytest.approx(1.0)

    def test_track_defaults_to_kernel_outside_processes(self):
        engine = make_engine_at()
        tracer = Tracer(engine)
        span = tracer.begin("op", "test")
        assert span.track == "kernel"


def run_churn(scheme_name, observe=True, faults=None):
    machine = make_machine(scheme_name, free_cpu=False, observe=observe,
                           faults=faults)
    run_user(machine, churn(machine)(), name="user0")
    machine.sync_and_settle()
    return machine


class TestMetricsTable:
    def test_names_are_unique(self):
        names = [name for name, _get in METRICS + TIMINGS]
        assert len(names) == len(set(names))

    def test_snapshot_reads_the_layers_own_counters(self):
        machine = run_churn("softupdates")
        snap = machine.obs.snapshot()
        assert snap["cache.hits"] == machine.cache.hits > 0
        assert snap["cache.forced_flushes"] == machine.cache.flushes_forced
        assert snap["driver.batches"] == machine.driver.batches > 0
        assert snap["driver.queue_peak"] == machine.driver.queue_peak > 0
        assert snap["driver.reads"] + snap["driver.writes"] \
            == len(machine.driver.trace)
        assert snap["disk.seek_time"] == machine.disk.stats.seek_time > 0
        assert snap["softupdates.deps_created"] \
            == machine.scheme.manager.deps_created > 0
        assert snap["softupdates.workitems"] \
            == machine.scheme.manager.workitems_serviced > 0
        assert snap["engine.heap_peak"] > 0

    def test_timing_is_count_sum_avg(self):
        snap = run_churn("conventional").obs.snapshot()
        count = snap["driver.queue_wait.count"]
        assert count == snap["driver.reads"] + snap["driver.writes"]
        assert snap["driver.queue_wait.avg"] \
            == snap["driver.queue_wait.sum"] / count
        # nothing waited on a buffer lock: an empty timing is all zeros
        assert snap["cache.lock_wait.count"] == snap["cache.lock_waits"]

    def test_names_appear_once_counted(self):
        conventional = run_churn("conventional").obs.snapshot()
        assert conventional["ordering.sync_stall"] > 0
        assert "ordering.flag_tags" not in conventional
        assert "softupdates.rollbacks" not in conventional
        assert "syscall.rmdir" not in conventional  # churn never calls it
        assert "driver.retries" not in conventional
        assert "disk.faults" not in conventional

    def test_recovery_names_appear_under_faults(self):
        from repro.faults import FaultPlan
        machine = run_churn("noorder", faults=FaultPlan(
            seed=5, transient_write_rate=0.2))
        snap = machine.obs.snapshot()
        assert snap["disk.faults"] == machine.disk.faults.injected > 0
        assert snap["driver.retries"] == machine.driver.retries > 0
        # the exported trace is valid and shows each injected fault as
        # one disk.fault span
        doc = json.loads(json.dumps(trace_events(machine.obs, "faults")))
        assert validate_trace_events(doc) > 0
        faults = [event for event in doc["traceEvents"]
                  if event["name"] == "disk.fault"]
        assert len(faults) == machine.disk.faults.injected
        assert {event["args"]["kind"] for event in faults} == {"transient"}

    @pytest.mark.parametrize("scheme_name", ["conventional", "softupdates"])
    def test_counts_do_not_depend_on_tracing(self, scheme_name):
        """The rule itself: a layer counts whether or not anyone observes,
        so an untraced machine holds the numbers a traced one reports."""
        from repro.obs.registry import snapshot
        traced = run_churn(scheme_name, observe=True)
        bare = run_churn(scheme_name, observe=False)
        assert bare.obs is None
        # lend it the session for the two rows only a tracer can fill
        # (spans dropped, heap peak); every other row reads a layer
        bare.obs = traced.obs
        assert snapshot(bare) == traced.obs.snapshot()


class TestSyscallCounts:
    def test_op_counts_are_the_syscall_metrics(self):
        """Every ``@_syscall`` entry point is counted once per call, in the
        wrapper -- ``sync`` included, which never charged the entry cost
        that used to do the counting."""
        machine = make_machine("noorder", observe=True)

        def user():
            handle = yield from machine.fs.create("/f")
            yield from machine.fs.write(handle, b"x" * 2048)
            yield from machine.fs.close(handle)
            yield from machine.fs.sync()

        run_user(machine, user())
        assert machine.fs.op_counts == {"create": 1, "write": 1,
                                        "close": 1, "sync": 1}
        snap = machine.obs.snapshot()
        assert snap["syscall.sync"] == 1
        assert {name: count for name, count in snap.items()
                if name.startswith("syscall.")} \
            == {f"syscall.{name}": count
                for name, count in machine.fs.op_counts.items()}

    def test_counted_without_tracing(self):
        machine = make_machine("noorder")
        run_user(machine, machine.fs.write_file("/f", b"x"))
        run_user(machine, machine.fs.sync())
        assert machine.fs.op_counts["sync"] == 1
        assert machine.fs.op_counts["create"] == 1

    def test_every_syscall_has_a_table_row(self):
        from repro.fs.vfs import FileSystem
        syscalls = {name for name, fn in vars(FileSystem).items()
                    if hasattr(fn, "__wrapped__")
                    and not name.startswith("_")}
        rows = {name[len("syscall."):] for name, _get in METRICS
                if name.startswith("syscall.")}
        assert rows == syscalls


class TestObservability:
    def test_attach_installs_hook_and_counts_events(self):
        machine = make_machine("noorder", observe=True)
        engine = machine.engine
        assert engine.obs is machine.obs
        assert engine.trace_hook is not None

        def worker():
            yield engine.timeout(1.0)
            yield engine.timeout(1.0)

        engine.run_until(engine.process(worker()))
        snap = machine.obs.snapshot()
        assert snap["engine.events"] == engine.events_processed > 0


def _observed_cell(scheme_name):
    machine = make_machine(scheme_name, observe=True)

    def user():
        yield from machine.fs.write_file("/f", b"x" * 4096)
        yield from machine.fs.sync()

    run_user(machine, user())
    return machine.obs.snapshot()


class TestSnapshotAcrossWorkers:
    def test_worker_snapshots_fold_home_deterministically(self):
        """obs.snapshot() taken inside fork-pool workers crosses the pipe
        intact and matches the same cell run in-process."""
        cells = [((name, i), functools.partial(_observed_cell, name))
                 for i, name in enumerate(["softupdates", "conventional",
                                           "softupdates", "conventional"])]
        results = run_grid("snapshot-fold", cells, jobs=2)
        local = {name: _observed_cell(name)
                 for name in ("softupdates", "conventional")}
        for (name, _i), snapshot in results.items():
            assert snapshot["engine.events"] > 0
            assert snapshot == local[name]


class TestEmptyTraceExports:
    def test_flame_summary_on_empty_trace(self):
        machine = make_machine("softupdates", observe=True)
        machine.obs.tracer.spans.clear()
        summary = flame_summary(machine.obs, label="empty")
        assert "Flame summary: empty" in summary
        assert "Category totals" in summary

    def test_chrome_export_on_empty_trace(self):
        machine = make_machine("softupdates", observe=True)
        machine.obs.tracer.spans.clear()
        document = trace_events(machine.obs, label="empty")
        validate_trace_events(document)


class TestExportValidation:
    def test_roundtrip_valid(self):
        obs = make_machine("noorder", observe=True).obs
        obs.tracer.spans.clear()
        span = obs.tracer.begin("op", "test", track="t")
        obs.engine.now += 1.0
        obs.tracer.end(span)
        obs.tracer.record_async("q", "driver", 0.0, 0.5, "t", async_id=3)
        doc = trace_events(obs, label="unit")
        count = validate_trace_events(doc)
        assert count >= 4  # metadata + X + b/e pair

    def test_validator_rejects_junk(self):
        with pytest.raises(TraceFormatError):
            validate_trace_events({"traceEvents": [{"ph": "Z"}]})
        with pytest.raises(TraceFormatError):
            validate_trace_events({"no": "events"})
        with pytest.raises(TraceFormatError):
            validate_trace_events(
                {"traceEvents": [{"ph": "X", "name": "n", "pid": 1,
                                  "tid": 1, "ts": 0.0}]})  # X without dur
