"""Obs edge cases: empty-trace exports and snapshot folding across fork
workers."""

import functools

from repro.harness.parallel import run_grid
from repro.obs import flame_summary, trace_events, validate_trace_events
from tests.conftest import make_machine, run_user


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
