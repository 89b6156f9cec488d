"""The automated regression gate: stratified medians, both verdict
directions, the CLI exit contract, and the escape hatch."""

import json

import pytest

from repro.harness.parallel import CellStats, GridReport
from repro.harness.perflog import append_record, build_session_record
from repro.harness.regress import (
    ALLOW_ENV,
    compare_records,
    format_regression_report,
    gate,
    main,
    stratum_of,
)


def session(wall_by_cell, scale=0.1, jobs=1, timestamp="t"):
    """A schema-true session record via the producer's own builder."""
    grid = GridReport(name="paper_tables", jobs=jobs)
    for key, wall in wall_by_cell.items():
        grid.cells.append(CellStats(key=key, wall_seconds=wall,
                                    sim_events=1000))
    grid.wall_seconds = sum(wall_by_cell.values())
    return build_session_record([grid], scale=scale, jobs=jobs,
                                timestamp=timestamp)


BASELINE = {"('copy', 'Soft Updates')": 1.0, "('remove', 'No Order')": 0.4}


def priors(n=3, **kwargs):
    return [session(BASELINE, timestamp=f"prior{i}", **kwargs)
            for i in range(n)]


class TestStratum:
    def test_matches_on_host_scale_jobs(self):
        assert stratum_of(session(BASELINE)) == stratum_of(session(BASELINE))
        assert stratum_of(session(BASELINE, scale=0.2)) \
            != stratum_of(session(BASELINE))
        assert stratum_of(session(BASELINE, jobs=4)) \
            != stratum_of(session(BASELINE))
        other_host = session(BASELINE)
        other_host["host"]["cpus"] += 1
        assert stratum_of(other_host) != stratum_of(session(BASELINE))

    def test_retired_kernel_store_numpy_keys_are_ignored(self):
        """Records from when there were two kernels and two stores still
        carry these keys; they no longer name a choice, so they must not
        split the stratum."""
        legacy = session(BASELINE)
        legacy.update(kernel="python", store="flat")
        legacy["host"]["numpy"] = True
        assert stratum_of(legacy) == stratum_of(session(BASELINE))

    def test_migrated_legacy_record_matches_nothing_real(self):
        legacy = {"wall_seconds": 1.0, "host": {}, "kernel": None,
                  "scale": None, "jobs": None}
        assert stratum_of(legacy) != stratum_of(session(BASELINE))


class TestCompareRecords:
    def test_unchanged_rerun_is_ok(self):
        verdicts = compare_records(session(BASELINE), priors())
        assert [v.status for v in verdicts] == ["ok", "ok"]

    def test_slowdown_flagged_with_cell_named(self):
        fresh = session({**BASELINE, "('copy', 'Soft Updates')": 3.0})
        verdicts = compare_records(fresh, priors())
        by_key = {v.key: v for v in verdicts}
        bad = by_key["('copy', 'Soft Updates')"]
        assert bad.status == "regression"
        assert bad.ratio == pytest.approx(3.0)
        assert "('copy', 'Soft Updates')" in bad.describe()
        assert by_key["('remove', 'No Order')"].status == "ok"

    def test_speedup_reported_as_improvement(self):
        fresh = session({**BASELINE, "('copy', 'Soft Updates')": 0.3})
        statuses = {v.key: v.status
                    for v in compare_records(fresh, priors())}
        assert statuses["('copy', 'Soft Updates')"] == "improved"

    def test_median_is_robust_to_one_outlier_prior(self):
        history = priors(4) + [session(
            {**BASELINE, "('copy', 'Soft Updates')": 50.0},
            timestamp="outlier")]
        verdicts = compare_records(session(BASELINE), history)
        assert all(v.status == "ok" for v in verdicts)

    def test_min_runs_required(self):
        verdicts = compare_records(session(BASELINE), priors(2),
                                   min_runs=3)
        assert all(v.status == "no-baseline" for v in verdicts)

    def test_other_stratum_priors_never_count(self):
        # 3 priors exist, but from a different job count: no baseline
        verdicts = compare_records(session(BASELINE), priors(jobs=4))
        assert all(v.status == "no-baseline" for v in verdicts)

    def test_abs_floor_suppresses_small_absolute_jitter(self):
        tiny = {"('copy', 'Soft Updates')": 0.010}
        fresh = session({"('copy', 'Soft Updates')": 0.030})
        history = [session(tiny, timestamp=f"p{i}") for i in range(3)]
        verdicts = compare_records(fresh, history, abs_floor=0.05)
        assert verdicts[0].status == "ok"   # 3x, but only +20ms


class TestReportAndGate:
    def write_trajectory(self, path, records):
        for record in records:
            append_record(path, record, keep=50)

    def test_gate_reads_trajectory_and_history(self, tmp_path):
        perf = tmp_path / "BENCH_perf.json"
        # keep=2 rotates the early priors into the history sidecar; the
        # gate must still find them there
        for record in priors() + [session(BASELINE, timestamp="fresh")]:
            append_record(perf, record, keep=2)
        verdicts, fresh = gate(perf)
        assert fresh["timestamp"] == "fresh"
        assert [v.baseline_runs for v in verdicts] == [3, 3]

    def test_gate_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            gate(tmp_path / "nope.json")

    def test_report_names_policy_and_regression(self):
        fresh = session({**BASELINE, "('copy', 'Soft Updates')": 3.0})
        verdicts = compare_records(fresh, priors())
        report = format_regression_report(verdicts, fresh, tolerance=0.5,
                                          min_runs=3, abs_floor=0.05,
                                          allowed=False)
        assert "median * 1.5" in report
        assert "REGRESSION" in report
        assert "('copy', 'Soft Updates')" in report
        assert "regressions: 1" in report


class TestCli:
    @pytest.fixture(autouse=True)
    def quiet_ledger(self, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", "off")
        monkeypatch.delenv(ALLOW_ENV, raising=False)

    def run(self, tmp_path, records, extra_args=()):
        perf = tmp_path / "BENCH_perf.json"
        perf.write_text(json.dumps(records))
        out = tmp_path / "regression_report.txt"
        code = main(["--perf-json", str(perf), "--out", str(out),
                     *extra_args])
        return code, out

    def test_clean_rerun_exits_zero(self, tmp_path, capsys):
        code, out = self.run(tmp_path,
                             priors() + [session(BASELINE,
                                                 timestamp="fresh")])
        assert code == 0
        assert "regressions: 0" in out.read_text()

    def test_synthetic_slowdown_exits_one_naming_cell(self, tmp_path,
                                                      capsys):
        slow = session({**BASELINE, "('copy', 'Soft Updates')": 3.0},
                       timestamp="fresh")
        code, out = self.run(tmp_path, priors() + [slow])
        assert code == 1
        report = out.read_text()
        assert "REGRESSION" in report
        assert "('copy', 'Soft Updates')" in report
        err = capsys.readouterr().err
        assert "REGRESSION" in err and "('copy', 'Soft Updates')" in err

    def test_escape_hatch_exits_zero_but_reports(self, tmp_path,
                                                 monkeypatch, capsys):
        monkeypatch.setenv(ALLOW_ENV, "1")
        slow = session({**BASELINE, "('copy', 'Soft Updates')": 3.0},
                       timestamp="fresh")
        code, out = self.run(tmp_path, priors() + [slow])
        assert code == 0
        report = out.read_text()
        assert "REGRESSION" in report
        assert ALLOW_ENV in report

    def test_no_baseline_session_passes(self, tmp_path):
        code, out = self.run(tmp_path, [session(BASELINE)])
        assert code == 0
        assert "no-baseline" in out.read_text()

    def test_missing_trajectory_exits_two(self, tmp_path, capsys):
        code = main(["--perf-json", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "r.txt")])
        assert code == 2

    def test_tolerance_flag_tightens_the_band(self, tmp_path):
        mild = session({**BASELINE, "('copy', 'Soft Updates')": 1.3},
                       timestamp="fresh")
        code, _ = self.run(tmp_path, priors() + [mild])
        assert code == 0
        code, _ = self.run(tmp_path, priors() + [mild],
                           extra_args=["--tolerance", "0.2"])
        assert code == 1
