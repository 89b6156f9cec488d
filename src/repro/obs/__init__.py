"""repro.obs -- deterministic tracing + metrics for the simulated testbed.

Enable by building the machine with ``MachineConfig(observe=True)``; every
layer then records spans (syscall -> buffer cache -> ordering decision ->
driver queue -> drive mechanics) and updates named metrics.  Tracing is
strictly passive -- it never touches the event heap -- so a traced run
produces byte-identical simulated behaviour to an untraced one
(``tests/obs/test_equivalence.py``).

Exports: Perfetto/Chrome ``trace_event`` JSON (:mod:`repro.obs.export`) and
a plain-text flame summary (:mod:`repro.obs.flame`);
``python -m repro.harness trace`` runs one benchmark cell with tracing on
and writes both under ``results/traces/``.
"""

from repro.obs.export import (
    TraceFormatError,
    trace_events,
    validate_trace_events,
    validate_trace_file,
    write_trace,
)
from repro.obs.flame import category_totals, coverage, flame_summary, summarize
from repro.obs.profiler import (
    CATEGORY_LAYER,
    LAYERS,
    LayerProfiler,
    format_profile_report,
    profile_rows,
)
from repro.obs.registry import (
    TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.session import Observability
from repro.obs.tracer import NULL_SPAN, Span, Tracer

__all__ = [
    "CATEGORY_LAYER",
    "Counter",
    "Gauge",
    "Histogram",
    "LAYERS",
    "LayerProfiler",
    "MetricsRegistry",
    "NULL_SPAN",
    "Observability",
    "Span",
    "TIME_BUCKETS",
    "TraceFormatError",
    "Tracer",
    "category_totals",
    "coverage",
    "flame_summary",
    "format_profile_report",
    "profile_rows",
    "summarize",
    "trace_events",
    "validate_trace_events",
    "validate_trace_file",
    "write_trace",
]
