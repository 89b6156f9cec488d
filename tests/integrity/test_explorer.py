"""The crash-point exploration engine, exercised end to end.

Tier-1 keeps the sweeps budgeted (a sampled subset of crash points, small
pools); the ``slow`` marker runs the full sweeps the acceptance story is
about: >=200 crash points per scheme, pool size >= 4, serial == parallel.
"""

import re

import pytest

from repro.harness.parallel import GridCellError
from repro.harness.recording import record_run
from repro.integrity import explorer
from repro.integrity.explorer import (
    build_machine,
    build_workload,
    enumerate_crash_points,
    explore,
)
from tests.integrity.replay_oracle import replay_finding


def small_sweep(scheme, workload="microbench", **kwargs):
    kwargs.setdefault("seed", 0)
    kwargs.setdefault("jobs", 1)
    kwargs.setdefault("max_points", 40)
    return explore(scheme, workload, **kwargs)


class TestRecording:
    def test_windows_are_disjoint_and_ordered(self):
        machine = build_machine("conventional")
        recorded = record_run(machine,
                              build_workload(machine, "microbench", 0, 8))
        assert recorded.windows, "a create workload must write something"
        for before, after in zip(recorded.windows, recorded.windows[1:]):
            assert before.complete_time <= after.transfer_start
        assert recorded.quiesce_time >= recorded.workload_done
        assert recorded.windows[-1].complete_time <= recorded.quiesce_time

    def test_quiescent_machine_has_nothing_dirty(self):
        machine = build_machine("softupdates")
        record_run(machine, build_workload(machine, "microbench", 0, 8))
        assert machine.driver.idle
        assert not machine.cache.dirty_buffers()
        assert machine.scheme.pending_work() == 0

    def test_recording_is_deterministic(self):
        runs = []
        for _ in range(2):
            machine = build_machine("chains")
            runs.append(record_run(
                machine, build_workload(machine, "churn", 11, 20)))
        assert runs[0].windows == runs[1].windows
        assert runs[0].events_processed == runs[1].events_processed
        assert runs[0].quiesce_time == runs[1].quiesce_time


class TestEnumeration:
    def test_boundaries_and_partials_enumerated(self):
        machine = build_machine("conventional")
        recorded = record_run(machine,
                              build_workload(machine, "microbench", 0, 8))
        points = enumerate_crash_points(recorded, samples_per_write=2,
                                        max_points=None)
        labels = [p.label for p in points]
        assert any(label.endswith("start") for label in labels)
        assert any(label.endswith("complete") for label in labels)
        assert any("sectors" in label for label in labels)
        # one start + one complete per window, partials only where the
        # window spans more than one sector
        starts = sum(1 for label in labels if label.endswith("start"))
        completes = sum(1 for label in labels if label.endswith("complete"))
        assert starts == completes == len(recorded.windows)
        times = [p.time for p in points]
        assert times == sorted(times)

    @pytest.mark.parametrize("scheme", ["conventional", "chains",
                                        "softupdates", "journal", "nvram"])
    def test_points_come_from_the_media_logs_own_records(self, scheme):
        """One list of records: what is enumerated is what is synthesized
        from, and the points are the windows' boundaries and sampled
        prefixes, computed here from the four numbers a window is."""
        machine = build_machine(scheme)
        recorded = record_run(machine,
                              build_workload(machine, "churn", 3, 20))
        assert recorded.windows is recorded.media_log.entries
        sector = machine.disk.geometry.sector_size
        want = []
        for wi, entry in enumerate(recorded.media_log.entries):
            lbn, n = entry.lbn, len(entry.data) // sector
            start, period = entry.transfer_start, entry.sector_period
            base = f"write {wi} (lbn {lbn}+{n})"
            want.append((start, f"{base} start"))
            for k in sorted({max(1, min(n - 1, round(j * n / 3)))
                             for j in (1, 2)} if n > 1 else ()):
                want.append((start + (k + 0.5) * period,
                             f"{base} after {k}/{n} sectors"))
            want.append((start + n * period, f"{base} complete"))
        points = enumerate_crash_points(recorded, samples_per_write=2,
                                        max_points=None)
        assert [(p.time, p.label) for p in points] == want

    def test_budget_sampling_is_deterministic(self):
        machine = build_machine("conventional")
        recorded = record_run(machine,
                              build_workload(machine, "microbench", 0, 8))
        once = enumerate_crash_points(recorded, 2, 10, sample_seed=5)
        again = enumerate_crash_points(recorded, 2, 10, sample_seed=5)
        assert once == again and len(once) == 10
        other = enumerate_crash_points(recorded, 2, 10, sample_seed=6)
        assert [p.time for p in other] != [p.time for p in once]


class TestBudgetedSweeps:
    def test_noorder_microbench_shows_corruption(self):
        report = small_sweep("noorder", max_points=None)
        assert report.points_violating(), "No Order must violate something"
        assert report.corruption_points, \
            "No Order must show corruption-class violations"
        # ... all of it within its own (unsafe) declaration
        assert report.clean

    @pytest.mark.parametrize("scheme", ["conventional", "softupdates"])
    def test_safe_schemes_show_no_corruption(self, scheme):
        report = small_sweep(scheme)
        assert not report.corruption_points, [
            (f.index, f.label, [v.message for v in f.violations[:3]])
            for f in report.corruption_points]
        assert report.clean

    def test_softupdates_leaks_are_permitted_not_hidden(self):
        report = small_sweep("softupdates", max_points=None)
        counts = report.violation_counts
        assert counts.get("leak", 0) > 0, \
            "deferred deallocation should leak at some crash point"
        assert report.clean

    def test_serial_equals_parallel(self):
        serial = small_sweep("chains", max_points=16)
        parallel = small_sweep("chains", max_points=16, jobs=2)
        assert serial.findings == parallel.findings

    def test_report_is_a_function_of_the_seed(self):
        """No host clock inside a simulated report: the same sweep twice
        prints byte for byte the same text and the same JSON."""
        first = small_sweep("noorder", max_points=16)
        second = small_sweep("noorder", max_points=16)
        assert first.format() == second.format()
        assert first.to_dict() == second.to_dict()

    def test_default_sweep_synthesizes_with_zero_replays(self):
        report = small_sweep("conventional", max_points=16)
        assert report.mode == "synthesize"
        assert report.log_bytes > 0
        assert report.enumerated_points >= report.points

    def test_nvram_sweeps_synthesize_like_every_scheme(self):
        # NVRAM's crash survivors live in battery-backed memory; the
        # recording logs them beside the media writes, so its sweep is
        # synthesized too (equivalence: test_synthesis_equivalence.py)
        report = small_sweep("nvram", max_points=8)
        assert report.mode == "synthesize"
        assert report.log_bytes > 0
        assert report.points == 8
        assert report.clean and not report.corruption_points

    def test_single_point_reproduces_sweep_finding(self):
        report = small_sweep("noorder", max_points=None)
        target = report.corruption_points[0]
        single = small_sweep("noorder", max_points=None, point=target.index)
        assert single.findings == [target]
        assert single.enumerated_points == report.enumerated_points
        point = explorer.CrashPoint(target.index, target.crash_time,
                                    target.label)
        assert replay_finding("noorder", "microbench", 0, None, point) \
            == target

    def test_unknown_point_is_a_value_error(self):
        with pytest.raises(ValueError, match="no crash point with index 999"):
            small_sweep("noorder", max_points=10, point=999)

    def test_failing_chunk_is_named_by_its_point_range(self, monkeypatch):
        """A chunk that raises fails the sweep with the grid's cell error,
        keyed by the chunk's crash-point range."""
        real = explorer.classify_image

        def fail_on_point_five(*args):
            if args[5] == 5:
                raise RuntimeError("synthetic failure at point 5")
            return real(*args)

        # forked workers inherit the patched module
        monkeypatch.setattr(explorer, "classify_image", fail_on_point_five)
        with pytest.raises(GridCellError) as excinfo:
            small_sweep("conventional", max_points=16, jobs=2)
        assert excinfo.value.grid == "explore conventional/microbench"
        assert "synthetic failure at point 5" in excinfo.value.error
        first, last = re.fullmatch(
            r"points #(\d+)\.\.#(\d+) \(t=.*\)", excinfo.value.key).groups()
        assert int(first) <= 5 <= int(last)

    def test_verify_repair_holds_for_softupdates(self):
        report = small_sweep("softupdates", max_points=24,
                             verify_repair=True)
        assert "unrepairable" not in report.violation_counts
        assert report.clean

    def test_secrets_closed_by_alloc_init(self):
        # soft updates enforces allocation initialization: no stale data
        report = small_sweep("softupdates", max_points=24, secrets=True)
        assert "stale-data" not in report.violation_counts
        assert report.clean


class TestCli:
    def test_cli_reports_and_exits_zero_within_declaration(self, capsys):
        from repro.integrity.explorer import main

        code = main(["--scheme", "noorder", "--workload", "microbench",
                     "--jobs", "1", "--max-points", "40"])
        out = capsys.readouterr().out
        assert code == 0
        assert "corruption" in out
        assert "PASS" in out

    def test_cli_json_mode(self, capsys):
        import json

        from repro.integrity.explorer import main

        code = main(["--scheme", "conventional", "--jobs", "1",
                     "--max-points", "12", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scheme"] == "conventional"
        assert payload["points"] == 12
        assert payload["clean"] is True

    def test_cli_single_point_mode(self, capsys):
        from repro.integrity.explorer import main

        code = main(["--scheme", "noorder", "--point", "0", "--jobs", "1"])
        assert code == 0
        out = capsys.readouterr().out
        # verified count AND full enumeration size are both stated
        assert "1 of " in out and "(subset)" in out

    def test_cli_states_budget_sampling(self, capsys):
        # satellite regression: a --max-points truncation is never silent;
        # the report must state enumerated vs verified counts
        from repro.integrity.explorer import main

        code = main(["--scheme", "noorder", "--jobs", "1",
                     "--max-points", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "10 of " in out
        assert "sampled, --max-points 10" in out

    def test_cli_unknown_point_is_a_usage_error(self, capsys):
        from repro.integrity.explorer import main

        code = main(["--scheme", "noorder", "--point", "999", "--jobs", "1",
                     "--max-points", "10"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no crash point with index 999 (enumerated 10)" \
            in captured.err


class TestSchemeLookup:
    def test_unknown_scheme_is_a_value_error(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            build_machine("no-such-scheme")

    def test_scheme_constructor_keyerror_is_not_masked(self, monkeypatch):
        # regression: the lookup's try once swallowed KeyErrors raised by
        # the scheme *constructor* and reported "unknown scheme" instead
        import repro.integrity.explorer as explorer

        class Exploding:
            def __init__(self):
                raise KeyError("boom")

        monkeypatch.setitem(explorer.SCHEMES, "exploding", Exploding)
        with pytest.raises(KeyError, match="boom"):
            build_machine("exploding")


@pytest.mark.slow
class TestFullSweeps:
    """The acceptance-grade sweeps: every boundary, pool >= 4."""

    def test_parallel_full_sweep_matches_serial(self):
        serial = explore("conventional", "microbench", seed=0, jobs=1,
                         max_points=None)
        parallel = explore("conventional", "microbench", seed=0, jobs=4,
                           max_points=None)
        assert serial.points >= 200
        assert serial.findings == parallel.findings

    @pytest.mark.parametrize("scheme", ["conventional", "flag", "chains",
                                        "softupdates", "nvram"])
    def test_safe_schemes_full_sweep_clean(self, scheme):
        for seed in (0, 7):
            report = explore(scheme, "churn", seed=seed, jobs=4,
                             max_points=None, verify_repair=True)
            assert not report.corruption_points, [
                (f.index, f.label, [v.message for v in f.violations[:3]])
                for f in report.corruption_points]
            assert report.clean

    def test_noorder_full_sweep_breaks_integrity(self):
        corrupted = 0
        for seed in (0, 7):
            report = explore("noorder", "churn", seed=seed, jobs=4,
                             max_points=None)
            corrupted += len(report.corruption_points)
            assert report.clean  # unsafe by declaration, not by surprise
        assert corrupted > 0
