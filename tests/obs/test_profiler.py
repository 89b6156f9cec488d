"""The per-layer table (``trace --profile``): attribution sanity, report
rendering, and the determinism discipline -- the table is a view of the
retained spans, and a traced run is the same simulation as a bare one."""

import pytest

from repro.obs import LAYERS, format_profile_report, profile_rows
from tests.conftest import SCHEME_FACTORIES, make_machine, run_user
from tests.obs.test_equivalence import churn, driver_trace_digest


def run_profiled(scheme_name, profile=True):
    machine = make_machine(scheme_name, free_cpu=False, observe=profile)
    run_user(machine, churn(machine)(), name="user0")
    machine.sync_and_settle()
    return machine


def rows_by_layer(machine):
    return {layer: (spans, sim)
            for layer, spans, sim, _share in profile_rows(machine.obs)}


class TestAttribution:
    def test_layers_see_their_time(self):
        rows = rows_by_layer(run_profiled("softupdates"))
        # syscalls, cache waits and drive mechanics all burned sim time
        assert rows["vfs"][1] > 0
        assert rows["cache"][1] > 0
        assert rows["drive"][1] > 0
        # driver queue residencies are async: counted, never folded
        assert rows["driver"][0] > 0
        assert rows["driver"][1] == 0.0
        for layer in LAYERS:
            assert rows[layer][1] >= 0.0

    def test_every_closed_span_is_counted_once(self):
        machine = run_profiled("conventional")
        closed = sum(1 for span in machine.obs.tracer.spans if span.closed)
        assert sum(spans for spans, _sim in rows_by_layer(machine).values()) \
            == closed

    def test_unprofiled_snapshot_has_no_profile_keys(self):
        """The table is computed when asked for; the metrics carry none of
        it, so ``--profile`` changes neither trace nor flame summary."""
        machine = run_profiled("softupdates")
        profile_rows(machine.obs)
        assert not any(key.startswith("profile.")
                       for key in machine.obs.snapshot())


class TestReportRendering:
    def test_rows_cover_every_layer_and_shares_sum_to_one(self):
        rows = profile_rows(run_profiled("softupdates").obs)
        assert [row[0] for row in rows] == list(LAYERS)
        assert sum(row[3] for row in rows) == pytest.approx(1.0)

    def test_report_renders_one_row_per_layer(self):
        machine = run_profiled("softupdates")
        report = format_profile_report(machine.obs, title="churn")
        assert report.startswith("churn\n=====\n")
        for layer, spans, _sim, _share in profile_rows(machine.obs):
            assert any(line.split()[:2] == [layer, str(spans)]
                       for line in report.splitlines())

    def test_empty_trace_renders_zero_rows(self):
        machine = make_machine("softupdates", observe=True)
        machine.obs.tracer.spans.clear()
        assert [row[1:] for row in profile_rows(machine.obs)] \
            == [(0, 0.0, 0.0)] * len(LAYERS)


class TestDeterminismDiscipline:
    @pytest.mark.parametrize("scheme_name", sorted(SCHEME_FACTORIES))
    def test_profiled_run_is_simulation_identical(self, scheme_name):
        bare = run_profiled(scheme_name, profile=False)
        profiled = run_profiled(scheme_name, profile=True)
        assert profiled.obs is not None and bare.obs is None
        assert profile_rows(profiled.obs)
        assert profiled.engine.events_processed \
            == bare.engine.events_processed
        assert profiled.engine.now == bare.engine.now
        assert driver_trace_digest(profiled) == driver_trace_digest(bare)

    def test_profiled_rerun_snapshot_deterministic(self):
        a = run_profiled("chains")
        b = run_profiled("chains")
        assert profile_rows(a.obs) == profile_rows(b.obs)
        assert a.obs.snapshot() == b.obs.snapshot()
