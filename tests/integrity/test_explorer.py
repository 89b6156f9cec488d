"""The crash-point exploration engine, exercised end to end.

Tier-1 keeps the sweeps budgeted (a sampled subset of crash points); the
``slow`` marker runs the full sweeps the acceptance story is about: every
crash point of churn, two seeds per scheme.
"""

import pytest

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
        # the second recording is the benchmark's transient crash-sweep
        # cell: a fault stops two 2-sector writes after their first sector,
        # before the nominal instant of their "after 1/2 sectors" cut
        for machine, ops in ((build_machine("conventional"), 8),
                             (build_machine("softupdates",
                                            fault_profile="transient",
                                            fault_seed=1), 128)):
            recorded = record_run(
                machine, build_workload(machine, "microbench", 0, ops))
            self.assert_boundaries_and_partials_enumerated(recorded)

    @staticmethod
    def assert_boundaries_and_partials_enumerated(recorded):
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
        # every point lies in its own window
        for point in points:
            window = recorded.windows[int(point.label.split()[1])]
            assert window.transfer_start <= point.time <= window.end, \
                point.label

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
        want = []
        for wi, entry in enumerate(recorded.media_log.entries):
            lbn, n = entry.lbn, len(entry.data)  # one pooled sector each
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

    def test_a_torn_writes_complete_point_sits_at_its_end(self):
        """A faulted transfer stops at the failing sector: its ``complete``
        point is the instant the drive stamped, not the nominal one."""
        machine = build_machine("softupdates", fault_profile="transient",
                                fault_seed=3)
        recorded = record_run(machine,
                              build_workload(machine, "microbench", 0, None))
        torn = [(wi, window) for wi, window in enumerate(recorded.windows)
                if window.end < window.complete_time]
        assert torn, "the fault plan must tear a write"
        points = {point.label: point.time for point in enumerate_crash_points(
            recorded, samples_per_write=2, max_points=None)}
        for wi, window in torn:
            assert window.durable < window.nsectors
            label = f"write {wi} (lbn {window.lbn}+{window.nsectors}) complete"
            assert points[label] == window.end

    def test_budget_sampling_is_deterministic(self):
        machine = build_machine("conventional")
        recorded = record_run(machine,
                              build_workload(machine, "microbench", 0, 8))
        once = enumerate_crash_points(recorded, 2, 10, sample_seed=5)
        again = enumerate_crash_points(recorded, 2, 10, sample_seed=5)
        assert once == again and len(once) == 10
        other = enumerate_crash_points(recorded, 2, 10, sample_seed=6)
        assert [p.time for p in other] != [p.time for p in once]

    def test_a_sweep_enumerates_once(self, monkeypatch):
        # the enumerated count and the budgeted points come from one pass
        # over the recording, the points those enumerate_crash_points gives
        passes = []
        real = explorer._enumerate_raw
        monkeypatch.setattr(explorer, "_enumerate_raw", lambda *args: (
            passes.append(1), real(*args))[1])
        report = small_sweep("conventional", max_points=10)
        assert len(passes) == 1
        assert report.points == 10 < report.enumerated_points
        machine = build_machine("conventional")
        recorded = record_run(machine,
                              build_workload(machine, "microbench", 0, None))
        assert report.enumerated_points == len(
            enumerate_crash_points(recorded, 2, None))
        assert [f.label for f in report.findings] == [
            p.label for p in enumerate_crash_points(recorded, 2, 10)]


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
        with pytest.raises(ValueError, match=r"no crash point with index 999 "
                           r"\(68 enumerated, 10 in the budget\)"):
            small_sweep("noorder", max_points=10, point=999)

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
                     "--max-points", "40"])
        out = capsys.readouterr().out
        assert code == 0
        assert "corruption" in out
        assert "PASS" in out

    def test_cli_json_mode(self, capsys):
        import json

        from repro.integrity.explorer import main

        code = main(["--scheme", "conventional", "--max-points", "12",
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scheme"] == "conventional"
        assert payload["points"] == 12
        assert payload["clean"] is True

    def test_cli_single_point_mode(self, capsys):
        from repro.integrity.explorer import main

        code = main(["--scheme", "noorder", "--point", "0"])
        assert code == 0
        out = capsys.readouterr().out
        # verified count AND full enumeration size are both stated
        assert "1 of " in out and "(subset)" in out

    def test_cli_states_budget_sampling(self, capsys):
        # satellite regression: a --max-points truncation is never silent;
        # the report must state enumerated vs verified counts
        from repro.integrity.explorer import main

        code = main(["--scheme", "noorder", "--max-points", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "10 of " in out
        assert "sampled, --max-points 10" in out

    def test_reproduce_line_reruns_the_same_point(self, capsys):
        # a point's index is a function of --ops, --samples-per-write and
        # --max-points too: the hint of a sweep that changed them must name
        # them, or it verifies a different crash point
        from repro.integrity.explorer import main

        def first_finding(argv):
            assert main(argv) == 0
            lines = capsys.readouterr().out.splitlines()
            start = next(i for i, line in enumerate(lines)
                         if line.startswith("crash point #"))
            end = next(i for i in range(start, len(lines))
                       if "reproduce:" in lines[i])
            return lines[start:end + 1]

        swept = first_finding(["--scheme", "noorder", "--workload", "churn",
                               "--ops", "60", "--samples-per-write", "3",
                               "--max-points", "100"])
        hint = swept[-1].split("reproduce:")[1].split()
        assert hint[hint.index("--ops") + 1] == "60"
        assert hint[hint.index("--samples-per-write") + 1] == "3"
        assert hint[hint.index("--max-points") + 1] == "100"
        # same index, instant, label, violations and hint
        assert first_finding(hint) == swept

    def test_default_options_stay_out_of_the_reproduce_line(self, capsys):
        from repro.integrity.explorer import main

        assert main(["--scheme", "noorder", "--max-points", "240"]) == 0
        hints = [line for line in capsys.readouterr().out.splitlines()
                 if "reproduce:" in line]
        assert hints and all(
            line.split("reproduce: ")[1].startswith(
                "--scheme noorder --workload microbench --seed 0 --point ")
            for line in hints)

    def test_cli_unknown_point_is_a_usage_error(self, capsys):
        from repro.integrity.explorer import main

        code = main(["--scheme", "noorder", "--point", "999",
                     "--max-points", "10"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no crash point with index 999 " \
            "(68 enumerated, 10 in the budget)" in captured.err


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
    """The acceptance-grade sweeps: every boundary."""

    @pytest.mark.parametrize("scheme", ["conventional", "flag", "chains",
                                        "softupdates", "nvram"])
    def test_safe_schemes_full_sweep_clean(self, scheme):
        for seed in (0, 7):
            report = explore(scheme, "churn", seed=seed, max_points=None,
                             verify_repair=True)
            assert not report.corruption_points, [
                (f.index, f.label, [v.message for v in f.violations[:3]])
                for f in report.corruption_points]
            assert report.clean

    def test_noorder_full_sweep_breaks_integrity(self):
        corrupted = 0
        for seed in (0, 7):
            report = explore("noorder", "churn", seed=seed, max_points=None)
            corrupted += len(report.corruption_points)
            assert report.clean  # unsafe by declaration, not by surprise
        assert corrupted > 0
