"""The run ledger + snapshot digests, and obs edge cases the observatory
leans on: empty-trace exports and snapshot folding across fork workers."""

import json
import os

from repro.harness.parallel import run_grid
from repro.obs import (
    append_ledger,
    flame_summary,
    host_facts,
    ledger_path,
    read_ledger,
    snapshot_digest,
    trace_events,
    validate_trace_events,
)
from tests.conftest import make_machine, run_user


class TestHostFacts:
    def test_shape(self):
        facts = host_facts()
        assert facts["cpus"] == (os.cpu_count() or 1)
        assert "numpy" not in facts
        assert facts["platform"]
        assert facts["python"].count(".") == 2


class TestSnapshotDigest:
    def test_insensitive_to_key_order(self):
        assert snapshot_digest({"a": 1, "b": 2.5}) \
            == snapshot_digest({"b": 2.5, "a": 1})

    def test_sensitive_to_values(self):
        assert snapshot_digest({"a": 1}) != snapshot_digest({"a": 2})

    def test_short_stable_hex(self):
        digest = snapshot_digest({"engine.events": 123})
        assert len(digest) == 12
        assert digest == snapshot_digest({"engine.events": 123})


class TestLedgerPath:
    def test_default_under_results(self, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        assert ledger_path().name == "ledger.jsonl"

    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "l.jsonl"))
        assert ledger_path() == tmp_path / "l.jsonl"

    def test_off_disables(self, monkeypatch):
        for off in ("off", "none", "0", ""):
            monkeypatch.setenv("REPRO_LEDGER", off)
            assert ledger_path() is None


class TestAppendLedger:
    def test_append_and_read_roundtrip(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        record = append_ledger("bench", {"scale": 0.1}, path=path)
        assert record["cmd"] == "bench"
        assert record["scale"] == 0.1
        assert record["host"]["cpus"] == (os.cpu_count() or 1)
        append_ledger("trace", {"scheme": "Soft Updates"}, path=path)
        records = read_ledger(path)
        assert [r["cmd"] for r in records] == ["bench", "trace"]

    def test_disabled_writes_nothing(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_LEDGER", "off")
        assert append_ledger("bench", {"scale": 0.1}) is None
        assert read_ledger(tmp_path / "missing.jsonl") == []

    def test_read_skips_corrupt_lines(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        append_ledger("a", path=path)
        with path.open("a") as fh:
            fh.write("{torn write\n")
        append_ledger("b", path=path)
        assert [r["cmd"] for r in read_ledger(path)] == ["a", "b"]


def _ledger_cell(index, path):
    record = append_ledger("cell", {"index": index}, path=path)
    return record["index"]


class TestLedgerUnderConcurrency:
    def test_grid_cells_append_without_interleaving(self, tmp_path):
        """O_APPEND single-write appends from fork-pool workers never tear:
        every line parses and every cell's record is present."""
        path = tmp_path / "ledger.jsonl"
        import functools
        cells = [(i, functools.partial(_ledger_cell, i, path))
                 for i in range(8)]
        results = run_grid("ledger-concurrency", cells, jobs=4)
        assert sorted(results.values()) == list(range(8))
        records = read_ledger(path)
        assert sorted(r["index"] for r in records) == list(range(8))
        # and the raw file is intact line-by-line JSON
        for line in path.read_text().splitlines():
            json.loads(line)


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
        import functools
        cells = [((name, i), functools.partial(_observed_cell, name))
                 for i, name in enumerate(["softupdates", "conventional",
                                           "softupdates", "conventional"])]
        results = run_grid("snapshot-fold", cells, jobs=2)
        local = {name: _observed_cell(name)
                 for name in ("softupdates", "conventional")}
        for (name, _i), snapshot in results.items():
            assert snapshot["engine.events"] > 0
            assert snapshot == local[name]
            assert snapshot_digest(snapshot) == snapshot_digest(local[name])


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
