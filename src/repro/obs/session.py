"""The per-machine observability session: one tracer + one registry.

A :class:`Observability` instance is created by
:class:`~repro.machine.Machine` when ``MachineConfig.observe`` is set and
installed on the engine *before* any component is constructed, so every
component can capture it (or ``None``) once at build time.  Nothing here
touches the event heap; see ``tracer.py`` for the determinism argument.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.profiler import LayerProfiler
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import DEFAULT_MAX_SPANS, Tracer

if TYPE_CHECKING:
    from repro.sim.engine import Engine


class Observability:
    """Tracing + metrics for one simulated machine.

    *max_spans* bounds tracer memory (0 = unbounded; drops are counted in
    ``tracer.spans_dropped``).
    *profile* attaches the per-layer :class:`LayerProfiler`, whose
    ``profile.<layer>.*`` counters ride every snapshot.
    """

    def __init__(self, engine: "Engine",
                 max_spans: int = DEFAULT_MAX_SPANS,
                 profile: bool = False) -> None:
        self.engine = engine
        self.tracer = Tracer(engine, max_spans=max_spans)
        self.registry = MetricsRegistry()
        self._events = self.registry.counter("engine.events")
        self._heap_peak = self.registry.gauge("engine.heap_peak")
        self.tracer.dropped_counter = \
            self.registry.counter("tracer.spans_dropped")
        self.profiler = None
        if profile:
            self.profiler = LayerProfiler(self.registry)
            self.tracer.profiler = self.profiler

    def attach(self, engine: "Engine") -> "Observability":
        """Install on *engine*: components built afterwards see it, and the
        event-dispatch hook keeps the engine-level metrics."""
        engine.obs = self
        engine.trace_hook = self._on_event
        return self

    def _on_event(self, when: float, event) -> None:
        """Engine dispatch hook: per-event accounting (never blocks)."""
        self._events.inc()
        self._heap_peak.track_max(self.engine.pending_events)

    def snapshot(self) -> dict:
        """Flat ``{metric name: value}`` for ``RunResult.extra``."""
        return self.registry.snapshot()

    def __repr__(self) -> str:
        return f"<Observability {self.tracer!r} {self.registry!r}>"
