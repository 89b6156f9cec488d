"""repro.obs -- deterministic tracing + metrics for the simulated testbed.

Enable by building the machine with ``MachineConfig(observe=True)``; every
layer then records spans (syscall -> buffer cache -> ordering decision ->
driver queue -> drive mechanics).  The metrics need no enabling: each layer
counts into its own plain attributes on every run, and
``machine.obs.snapshot()`` reads them by name (:mod:`repro.obs.registry`).
Tracing is strictly passive -- it never touches the event heap -- so a
traced run produces byte-identical simulated behaviour to an untraced one
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
from repro.obs.flame import (
    CATEGORY_LAYER,
    LAYERS,
    category_totals,
    coverage,
    flame_summary,
    format_profile_report,
    profile_rows,
    summarize,
)
from repro.obs.registry import METRICS, TIMINGS
from repro.obs.session import Observability
from repro.obs.tracer import Span, Tracer

__all__ = [
    "CATEGORY_LAYER",
    "LAYERS",
    "METRICS",
    "Observability",
    "Span",
    "TIMINGS",
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
