"""The per-layer counting profiler: attribution sanity, conservation
against the offline flame fold, report rendering, and the determinism
discipline -- a profiled run is the same simulation as a bare one."""

import pytest

from repro.obs import (
    LAYERS,
    flame_summary,
    format_profile_report,
    profile_rows,
    summarize,
)
from tests.conftest import SCHEME_FACTORIES, make_machine, run_user
from tests.obs.test_equivalence import churn, driver_trace_digest


def run_profiled(scheme_name, profile=True, max_spans=None):
    machine = make_machine(scheme_name, free_cpu=False, observe=profile,
                           profile=profile)
    if max_spans is not None:
        machine.obs.tracer.max_spans = max_spans
    run_user(machine, churn(machine)(), name="user0")
    machine.sync_and_settle()
    return machine


class TestAttribution:
    def test_layers_see_their_time(self):
        snapshot = run_profiled("softupdates").obs.snapshot()
        # syscalls, cache waits and drive mechanics all burned sim time
        assert snapshot["profile.vfs.sim"] > 0
        assert snapshot["profile.cache.sim"] > 0
        assert snapshot["profile.drive.sim"] > 0
        # driver queue residencies are async: counted, never folded
        assert snapshot["profile.driver.spans"] > 0
        assert snapshot["profile.driver.sim"] == 0.0
        for layer in LAYERS:
            assert snapshot[f"profile.{layer}.sim"] >= 0.0

    def test_self_time_conserved_against_flame_fold(self):
        """The online fold (child subtraction, retrospective parents) must
        agree with the offline flame summary's self-time totals."""
        machine = run_profiled("softupdates")
        snapshot = machine.obs.snapshot()
        online = sum(snapshot[f"profile.{layer}.sim"] for layer in LAYERS)
        offline = sum(stat.self_time
                      for summary in summarize(machine.obs).values()
                      for stat in summary.paths.values())
        assert online == pytest.approx(offline, abs=1e-9)

    def test_unprofiled_snapshot_has_no_profile_keys(self):
        machine = make_machine("softupdates", observe=True)
        run_user(machine, churn(machine)(), name="user0")
        assert not any(key.startswith("profile.")
                       for key in machine.obs.snapshot())


class TestReportRendering:
    def test_rows_cover_every_layer_and_shares_sum_to_one(self):
        snapshot = run_profiled("softupdates").obs.snapshot()
        rows = profile_rows(snapshot)
        assert [row[0] for row in rows] == list(LAYERS)
        assert sum(row[3] for row in rows) == pytest.approx(1.0)

    def test_rows_empty_without_profile_keys(self):
        assert profile_rows({"engine.events": 5}) == []

    def test_report_skips_unprofiled_cells(self):
        snapshot = run_profiled("softupdates").obs.snapshot()
        report = format_profile_report(
            [("profiled", snapshot), ("bare", {})])
        assert "profiled" in report
        assert "bare" not in report
        assert "vfs" in report

    def test_report_names_the_knob_when_nothing_profiled(self):
        report = format_profile_report([("bare", {})])
        assert "MachineConfig(profile=True)" in report


class TestDeterminismDiscipline:
    @pytest.mark.parametrize("scheme_name", sorted(SCHEME_FACTORIES))
    def test_profiled_run_is_simulation_identical(self, scheme_name):
        bare = run_profiled(scheme_name, profile=False)
        profiled = run_profiled(scheme_name, profile=True)
        assert profiled.obs is not None and bare.obs is None
        assert profiled.engine.events_processed \
            == bare.engine.events_processed
        assert profiled.engine.now == bare.engine.now
        assert driver_trace_digest(profiled) == driver_trace_digest(bare)

    def test_profiled_rerun_snapshot_deterministic(self):
        a = run_profiled("chains").obs.snapshot()
        b = run_profiled("chains").obs.snapshot()
        assert a == b

    def test_profiler_keeps_counting_past_the_span_cap(self):
        capped = run_profiled("softupdates", max_spans=30)
        full = run_profiled("softupdates", max_spans=0)
        assert capped.obs.tracer.dropped > 0
        for layer in LAYERS:
            for suffix in ("sim", "spans"):
                key = f"profile.{layer}.{suffix}"
                assert capped.obs.snapshot()[key] \
                    == full.obs.snapshot()[key]
        assert "profile.* metrics" in flame_summary(capped.obs)
