"""Acceptance: every scheme's copy/remove cell exports a valid Perfetto
trace and the flame summary attributes >= 95% of user-track time to named
spans."""

import json

import pytest

from repro.harness import run_copy, run_remove
from repro.harness.runner import standard_scheme_config
from repro.harness.__main__ import SCHEME_ALIASES, main as harness_main
from repro.obs import (
    flame_summary,
    summarize,
    trace_events,
    validate_trace_events,
    validate_trace_file,
)
from repro.workloads.trees import TreeSpec

SCALE = 0.015
CACHE = 2 * 1024 * 1024


def traced_cell(scheme_name: str, bench: str):
    config = standard_scheme_config(scheme_name, cache_bytes=CACHE)
    config.observe = True
    captured = {}
    runner = run_copy if bench == "copy" else run_remove
    result = runner(config, 1, TreeSpec().scaled(SCALE),
                    label=f"{bench} {scheme_name}",
                    on_machine=lambda machine: captured.update(m=machine))
    return captured["m"], result


@pytest.mark.parametrize("scheme_name,bench", [
    ("No Order", "copy"),
    ("Conventional", "remove"),
    ("Scheduler Flag", "copy"),
    ("Scheduler Chains", "remove"),
    ("Soft Updates", "copy"),
])
def test_traced_cell_exports_valid_trace(scheme_name, bench):
    machine, result = traced_cell(scheme_name, bench)
    assert machine.tracer is not None
    assert result.disk_requests > 0

    doc = trace_events(machine, label=f"{bench} {scheme_name}")
    count = validate_trace_events(doc)
    assert count > 100  # a real workload, not a stub trace
    # survives a JSON round trip (what Perfetto actually loads)
    validate_trace_events(json.loads(json.dumps(doc)))

    # flame acceptance: >= 95% of each user track's active time is under
    # named top-level spans (syscalls)
    summaries = summarize(machine.tracer)
    user_tracks = [track for track in summaries if track.startswith("user")]
    assert user_tracks
    for track in user_tracks:
        assert summaries[track].coverage >= 0.95, \
            f"{track}: {summaries[track].coverage:.3f}"

    text = flame_summary(machine, label=scheme_name)
    assert "Track user0" in text
    assert "syscall." in text
    assert "Metrics:" in text


def test_snapshot_lands_in_run_result_extra():
    machine, result = traced_cell("Conventional", "copy")
    assert result.extra["engine.events"] == machine.engine.events_processed
    assert result.extra["driver.writes"] > 0
    # the histogram covers the whole session (setup included); the
    # RunResult window starts at the benchmark mark
    assert result.extra["driver.queue_wait.count"] >= result.disk_requests
    # the sync-stall counter is the conventional scheme's signature
    assert result.extra["ordering.sync_stall"] > 0
    # any instrument is citable as a report column by name
    row = result.as_row(["scheme", "ordering.sync_stall"])
    assert row == ["Conventional", result.extra["ordering.sync_stall"]]


def test_trace_cli_writes_valid_artifacts(tmp_path, capsys):
    rc = harness_main(["prog", "trace", "copy", "--scheme", "noorder",
                       "--scale", "0.01", "--out", str(tmp_path)])
    assert rc == 0
    trace_path = tmp_path / "copy-no-order.trace.json"
    flame_path = tmp_path / "copy-no-order.flame.txt"
    assert trace_path.is_file() and flame_path.is_file()
    assert validate_trace_file(trace_path) > 0
    assert "Track user0" in flame_path.read_text()
    out = capsys.readouterr().out
    assert "traced copy No Order" in out


def test_trace_cli_rejects_unknown_scheme():
    with pytest.raises(SystemExit):
        harness_main(["prog", "trace", "copy", "--scheme", "nonesuch"])


def test_scheme_aliases_cover_all_standard_schemes():
    # the aliases come from the single registry, so every standard scheme
    # is reachable (non-standard registrants like nvram ride along too)
    from repro.harness.runner import STANDARD_SCHEMES
    assert set(STANDARD_SCHEMES) <= set(SCHEME_ALIASES.values())
