"""The flame summary's category table: attribution sanity, rendering, and
the determinism discipline -- the table is a view of the retained spans,
and a traced run is the same simulation as a bare one."""

import pytest

from repro.obs import category_totals, flame_summary, snapshot, summarize
from tests.conftest import SCHEME_FACTORIES, make_machine, run_user
from tests.obs.test_equivalence import churn, driver_trace_digest


def run_profiled(scheme_name, profile=True):
    machine = make_machine(scheme_name, free_cpu=False, observe=profile)
    run_user(machine, churn(machine)(), name="user0")
    machine.sync_and_settle()
    return machine


def rows_by_category(machine):
    """``category -> (spans, self seconds)``."""
    return {cat: (count, self_time) for cat, (_total, self_time, count)
            in category_totals(machine.tracer).items()}


class TestAttribution:
    def test_layers_see_their_time(self):
        rows = rows_by_category(run_profiled("softupdates"))
        # syscalls, cache waits and drive mechanics all burned sim time
        assert rows["syscall"][1] > 0
        assert rows["cache"][1] > 0
        assert rows["disk"][1] > 0
        # driver queue residencies are async: counted, never folded
        assert rows["driver"][0] > 0
        assert rows["driver"][1] == 0.0
        for _count, self_time in rows.values():
            assert self_time >= 0.0

    def test_every_closed_span_is_counted_once(self):
        machine = run_profiled("conventional")
        closed = sum(1 for span in machine.tracer.spans if span.closed)
        assert sum(count for count, _self in
                   rows_by_category(machine).values()) == closed

    def test_unprofiled_snapshot_has_no_profile_keys(self):
        """The table is computed when rendered; the metrics carry none of
        it, so the exported trace does not depend on it."""
        machine = run_profiled("softupdates")
        before = snapshot(machine)
        flame_summary(machine)
        assert snapshot(machine) == before
        assert not any(key.startswith(("profile.", "flame."))
                       for key in before)


class TestReportRendering:
    def test_rows_cover_every_layer_and_shares_sum_to_one(self):
        """Self-time partitions the time under top-level spans: the self
        column's shares of every track's covered time sum to one."""
        machine = run_profiled("softupdates")
        rows = rows_by_category(machine)
        assert set(rows) == {span.cat for span in machine.tracer.spans}
        covered = sum(summary.covered
                      for summary in summarize(machine.tracer).values())
        assert sum(self_time / covered for _count, self_time
                   in rows.values()) == pytest.approx(1.0)

    def test_report_renders_one_row_per_layer(self):
        machine = run_profiled("softupdates")
        report = flame_summary(machine, label="churn")
        assert report.startswith("Flame summary: churn\n")
        table = report.split("Category totals (simulated seconds):\n")[1]
        table = table.split("\n\n")[0].splitlines()
        rows = rows_by_category(machine)
        assert len(table) == len(rows)
        for line in table:
            cat, _total, self_word, self_time, count, _spans = line.split()
            assert self_word == "self"
            assert int(count) == rows[cat][0]
            assert float(self_time[:-1]) == pytest.approx(rows[cat][1],
                                                          abs=1e-6)

    def test_empty_trace_renders_zero_rows(self):
        machine = make_machine("softupdates", observe=True)
        machine.tracer.spans.clear()
        assert category_totals(machine.tracer) == {}


class TestDeterminismDiscipline:
    @pytest.mark.parametrize("scheme_name", sorted(SCHEME_FACTORIES))
    def test_profiled_run_is_simulation_identical(self, scheme_name):
        bare = run_profiled(scheme_name, profile=False)
        profiled = run_profiled(scheme_name, profile=True)
        assert profiled.tracer is not None and bare.tracer is None
        assert category_totals(profiled.tracer)
        assert profiled.engine.events_processed \
            == bare.engine.events_processed
        assert profiled.engine.now == bare.engine.now
        assert driver_trace_digest(profiled) == driver_trace_digest(bare)

    def test_profiled_rerun_snapshot_deterministic(self):
        a = run_profiled("chains")
        b = run_profiled("chains")
        assert category_totals(a.tracer) == category_totals(b.tracer)
        assert snapshot(a) == snapshot(b)
