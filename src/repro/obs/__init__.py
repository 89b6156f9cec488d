"""repro.obs -- deterministic tracing + metrics for the simulated testbed.

Enable by building the machine with ``MachineConfig(observe=True)``; its
:class:`Tracer` (``machine.tracer``, None otherwise) then records spans in
every layer (syscall -> buffer cache -> ordering decision -> driver queue ->
drive mechanics).  The metrics need no enabling: each layer counts into its
own plain attributes on every run, and :func:`snapshot` reads them by name
off any machine, traced or not (:mod:`repro.obs.registry`).  Tracing is
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
from repro.obs.flame import category_totals, flame_summary, summarize
from repro.obs.registry import METRICS, TIMINGS, snapshot
from repro.obs.tracer import Span, Tracer

__all__ = [
    "METRICS",
    "Span",
    "TIMINGS",
    "TraceFormatError",
    "Tracer",
    "category_totals",
    "flame_summary",
    "snapshot",
    "summarize",
    "trace_events",
    "validate_trace_events",
    "validate_trace_file",
    "write_trace",
]
