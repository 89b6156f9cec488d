"""The per-machine observability session: one tracer + the metrics view.

A :class:`Observability` instance is created by
:class:`~repro.machine.Machine` when ``MachineConfig.observe`` is set and
installed on the engine *before* any component is constructed, so every
component can capture it (or ``None``) once at build time.  Components use
it for spans only; their counts are plain attributes that exist either way
and :meth:`Observability.snapshot` reads them through the one table in
:mod:`repro.obs.registry`.  Nothing here touches the event heap; see
``tracer.py`` for the determinism argument.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs import registry
from repro.obs.tracer import Tracer

if TYPE_CHECKING:
    from repro.machine import Machine


class Observability:
    """Tracing + metrics for one simulated machine."""

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        self.engine = engine = machine.engine
        self.tracer = Tracer(engine)
        #: peak event-heap size, the one number only the dispatch hook sees
        self.heap_peak = 0
        engine.obs = self
        engine.trace_hook = self._on_event

    def _on_event(self, when: float, event) -> None:
        """Engine dispatch hook (never blocks)."""
        pending = self.engine.pending_events
        if pending > self.heap_peak:
            self.heap_peak = pending

    def snapshot(self) -> dict:
        """Flat ``{metric name: value}`` for ``RunResult.extra``."""
        return registry.snapshot(self.machine)

    def __repr__(self) -> str:
        return f"<Observability {self.tracer!r}>"
