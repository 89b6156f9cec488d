"""The span cap: tracer memory stays bounded, drops are counted and
surfaced, and a capped run is still the same simulation."""

from repro.obs import category_totals, flame_summary, snapshot
from repro.obs.tracer import DEFAULT_MAX_SPANS
from tests.obs.test_equivalence import churn, driver_trace_digest
from tests.conftest import make_machine, run_user


def run_capped(cap):
    machine = make_machine("softupdates", free_cpu=False, observe=True)
    machine.tracer.max_spans = cap
    run_user(machine, churn(machine)(), name="user0")
    machine.sync_and_settle()
    return machine


class TestDefaultMaxSpans:
    def test_module_default_without_env(self):
        machine = make_machine("softupdates", observe=True)
        assert machine.tracer.max_spans == DEFAULT_MAX_SPANS


class TestSpanCap:
    def test_retention_bounded_and_drops_counted(self):
        machine = run_capped(40)
        tracer = machine.tracer
        assert len(tracer.spans) == 40
        assert tracer.dropped > 0
        assert snapshot(machine)["tracer.spans_dropped"] \
            == tracer.dropped

    def test_zero_means_unbounded(self):
        machine = run_capped(0)
        tracer = machine.tracer
        assert tracer.dropped == 0
        assert len(tracer.spans) > 40

    def test_flame_summary_warns_about_drops(self):
        capped = run_capped(40)
        summary = flame_summary(capped)
        assert "WARNING" in summary
        assert f"{capped.tracer.dropped} spans dropped" in summary
        # the category table is a view of the retained spans, so it
        # undercounts with them -- which the warning says
        assert "totals below undercount" in summary
        assert sum(count for _total, _self, count
                   in category_totals(capped.tracer).values()) <= 40
        uncapped = run_capped(0)
        assert "WARNING" not in flame_summary(uncapped)

    def test_capped_run_is_simulation_identical(self):
        capped = run_capped(25)
        uncapped = run_capped(0)
        assert capped.engine.events_processed \
            == uncapped.engine.events_processed
        assert capped.engine.now == uncapped.engine.now
        assert driver_trace_digest(capped) == driver_trace_digest(uncapped)

    def test_span_ids_and_nesting_survive_the_cap(self):
        """Spans past the cap still get ids and stack slots, so the
        retained prefix's parent links never dangle into reused ids."""
        machine = run_capped(40)
        spans = machine.tracer.spans
        ids = [span.id for span in spans]
        assert len(set(ids)) == len(ids)
        known = set(ids)
        for span in spans:
            if span.parent is not None and span.parent in known:
                parent = next(s for s in spans if s.id == span.parent)
                assert parent.start <= span.start
