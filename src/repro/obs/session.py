"""The per-machine observability session: one tracer + the metrics view.

A :class:`Observability` instance is created by
:class:`~repro.machine.Machine` when ``MachineConfig.observe`` is set and
installed on the engine *before* any component is constructed, so every
component can capture it (or ``None``) once at build time.  Components use
it for spans only; their counts are plain attributes that exist either way
and :meth:`Observability.snapshot` reads them through the one table in
:mod:`repro.obs.registry`.  Nothing here touches the event heap or the
dispatch loop, so a traced run schedules exactly as an untraced one; see
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
        engine.obs = self

    def snapshot(self) -> dict:
        """Flat ``{metric name: value}`` for ``RunResult.extra``."""
        return registry.snapshot(self.machine)

    def __repr__(self) -> str:
        return f"<Observability {self.tracer!r}>"
