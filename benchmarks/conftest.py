"""Shared benchmark infrastructure.

Every benchmark regenerates one of the paper's tables or figures: it runs
the workload on the simulator under each scheme configuration, prints the
rows in the paper's format, writes them to ``benchmarks/results/``, and
asserts the paper's qualitative findings (who wins, by roughly what factor).

Scale: ``REPRO_SCALE`` (default 0.15) scales file counts/bytes; 1.0 is
paper-scale.  Simulated seconds are reported, not wall seconds.

Parallelism: each benchmark's independent (scheme, config) cells run
through :func:`repro.harness.parallel.run_grid`, which fans them across a
process pool (``REPRO_JOBS`` workers, default: all cores; ``REPRO_JOBS=1``
forces serial).  Results are deterministic either way -- the regenerated
tables are byte-identical.  At session end the per-cell wall clock and
simulator event counts are appended to the ``BENCH_perf.json`` trajectory
at the repo root and summarized in ``benchmarks/results/perf_report.txt``
(both host-wall-clock artifacts: they vary run to run and are *not* part
of the deterministic table output).
"""

import pathlib
import time

import pytest

from repro.harness.parallel import (  # noqa: F401  (run_grid re-exported)
    GRID_REPORTS,
    default_jobs,
    run_grid,
)
from repro.harness.perflog import append_record, build_session_record
from repro.harness.report import format_table
from repro.harness.runner import FULL_CACHE_BYTES, scale_factor
from repro.obs.observatory import append_ledger, snapshot_digest
from repro.obs.profiler import format_profile_report

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
PERF_JSON = pathlib.Path(__file__).parent.parent / "BENCH_perf.json"

SCALE = scale_factor()


def scaled_cache() -> int:
    """Cache size shrunk with the workload to preserve memory pressure."""
    return max(1 * 1024 * 1024, int(FULL_CACHE_BYTES * SCALE))


def emit(name: str, text: str) -> None:
    """Print a regenerated table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)


@pytest.fixture
def once(benchmark):
    """Run the experiment exactly once under pytest-benchmark timing."""

    def runner(fn):
        return benchmark.pedantic(fn, rounds=1, iterations=1)

    return runner


def pytest_sessionfinish(session, exitstatus):
    """Flush the session's grid statistics to the perf trajectory."""
    if not GRID_REPORTS:
        return
    record = build_session_record(
        GRID_REPORTS, scale=SCALE, jobs=default_jobs(),
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()))
    # keep the JSON trajectory bounded; older sessions rotate into
    # BENCH_perf.history.jsonl (see repro.harness.perflog)
    append_record(PERF_JSON, record)
    append_ledger("grid", {
        "scale": SCALE,
        "jobs": default_jobs(),
        "grids": [grid.name for grid in GRID_REPORTS],
        "cells": sum(len(grid.cells) for grid in GRID_REPORTS),
        "wall_seconds": record["wall_seconds"],
        "sim_events": record["sim_events"],
        "events_per_second": round(record["sim_events"]
                                   / max(record["cell_wall_seconds"], 1e-9)),
        "snapshot_digest": snapshot_digest(record),
        "exitstatus": int(exitstatus),
    })

    # profiled sessions (REPRO_PROFILE=1) additionally get the per-layer
    # breakdown table; cells without profile.* extras are skipped, and an
    # unprofiled session writes nothing
    profile_cells = [(f"{grid.name} / {cell.key}", cell.wall_seconds,
                      cell.extra)
                     for grid in GRID_REPORTS for cell in grid.cells
                     if any(key.startswith("profile.")
                            for key in cell.extra)]
    if profile_cells:
        results_dir = pathlib.Path("results")
        results_dir.mkdir(exist_ok=True)
        profile_report = format_profile_report(
            profile_cells,
            title=f"Per-layer profile (scale={SCALE}; sim self-time, "
                  f"wall prorated)")
        (results_dir / "profile_report.txt").write_text(
            profile_report + "\n")
        print()
        print(profile_report)

    rows = []
    for grid in GRID_REPORTS:
        for cell in grid.cells:
            rows.append([grid.name, cell.key, cell.wall_seconds,
                         cell.sim_events, cell.events_per_second])
        rows.append([grid.name, "(grid total)", grid.wall_seconds,
                     grid.sim_events,
                     grid.sim_events / grid.wall_seconds
                     if grid.wall_seconds else 0.0])
    report = format_table(
        f"Benchmark performance (scale={SCALE}, jobs={default_jobs()}, "
        f"host wall clock -- varies run to run)",
        ["Grid", "Cell", "Wall (s)", "Sim events", "Events/s"], rows)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "perf_report.txt").write_text(report + "\n")
    print()
    print(report)
