"""Per-layer time attribution: a cheap counting profiler over the tracer.

The flame summary answers "where did simulated time go?" *after* a run, by
folding the retained span list -- which costs memory proportional to the
span count and dies with the span cap.  The profiler answers the same
question *online*: the tracer calls :meth:`LayerProfiler.close` as each
span closes (including spans the cap dropped), and the profiler folds the
duration into one of six fixed layers::

    vfs     syscall spans           (fs/vfs.py)
    cache   buffer-cache + syncer   (cache/)
    scheme  ordering decisions      (ordering/)
    driver  queue residency         (driver/, async -- counted, not folded)
    drive   mechanical phases       (disk/)
    kernel  anything uncategorized  (engine-side)

Attribution policy (documented in ``docs/performance.md``): **sim
self-time** is exact -- each closed sync span contributes its duration
minus its closed children's durations, so a syscall's cache waits land
under ``cache``, not ``vfs``.  Async spans (driver queue residencies
overlap by design) are counted but never folded.  This is *simulated*
time; where the simulator's own host time goes is ``bench/``'s question
(its ``cProfile`` layer fold), not this table's.

Everything lands in the machine's :class:`MetricsRegistry` under
``profile.<layer>.sim`` / ``profile.<layer>.spans``, so ``obs.snapshot()``
folds it into ``RunResult.extra`` with zero extra plumbing, and
``python -m repro.harness trace <bench> --profile`` renders the breakdown
table.  The profiler reads clocks and adds floats -- it never touches the
event heap, so a profiled run is simulation-identical to a bare one
(``tests/obs/test_profiler.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.obs.registry import MetricsRegistry
    from repro.obs.tracer import Span

__all__ = ["CATEGORY_LAYER", "LAYERS", "LayerProfiler",
           "format_profile_report", "profile_rows"]

#: the fixed attribution targets, pipeline order
LAYERS = ("vfs", "cache", "scheme", "driver", "drive", "kernel")

#: span category -> layer (the syncer is part of the cache layer: its
#: sweeps exist to push the cache's delayed writes)
CATEGORY_LAYER = {
    "syscall": "vfs",
    "cache": "cache",
    "syncer": "cache",
    "ordering": "scheme",
    "driver": "driver",
    "disk": "drive",
}

#: recently-closed parent ids retained for late-child subtraction (the
#: drive records its outer span before its seek/rotate/transfer children;
#: children always follow within a handful of spans)
_CLOSED_CAP = 4096


class LayerProfiler:
    """Online per-layer sim-time fold, registered as plain counters."""

    __slots__ = ("_sim", "_spans", "_child", "_closed_layer")

    def __init__(self, registry: "MetricsRegistry") -> None:
        self._sim = {layer: registry.counter(f"profile.{layer}.sim")
                     for layer in LAYERS}
        self._spans = {layer: registry.counter(f"profile.{layer}.spans")
                       for layer in LAYERS}
        #: open-parent id -> accumulated closed-child duration
        self._child: dict[int, float] = {}
        #: bounded map of recently closed span id -> layer
        self._closed_layer: dict[int, str] = {}

    def close(self, span: "Span") -> None:
        """Account one closing span (called by the tracer, cap or not)."""
        layer = CATEGORY_LAYER.get(span.cat, "kernel")
        self._spans[layer].inc()
        if span.async_id is not None:
            # overlapping queue residencies: counted, never folded
            return
        duration = span.duration
        self_time = duration - self._child.pop(span.id, 0.0)
        if self_time > 0.0:
            self._sim[layer].inc(self_time)
        parent = span.parent
        if parent is not None:
            parent_layer = self._closed_layer.get(parent)
            if parent_layer is not None:
                # retrospective pattern: the parent closed first and was
                # credited its full duration -- give this child's share back
                sim = self._sim[parent_layer]
                sim.value = max(0.0, sim.value - duration)
            else:
                self._child[parent] = self._child.get(parent, 0.0) + duration
        closed = self._closed_layer
        closed[span.id] = layer
        if len(closed) > _CLOSED_CAP:
            del closed[next(iter(closed))]


# ----------------------------------------------------------------------
# report rendering (pure functions over snapshot dicts)
# ----------------------------------------------------------------------
def profile_rows(extra: dict) -> list:
    """``[(layer, spans, sim_self, share)]`` from a snapshot.

    *extra* is any mapping containing ``profile.*`` keys (an
    ``obs.snapshot()``, ``RunResult.extra``).  Returns [] when the cell
    was not profiled.
    """
    sims = {layer: extra.get(f"profile.{layer}.sim", 0.0) for layer in LAYERS}
    counts = {layer: extra.get(f"profile.{layer}.spans", 0)
              for layer in LAYERS}
    if not any(counts.values()) and not any(sims.values()):
        return []
    total = sum(sims.values())
    rows = []
    for layer in LAYERS:
        share = sims[layer] / total if total > 0 else 0.0
        rows.append((layer, counts[layer], sims[layer], share))
    return rows


def format_profile_report(cells: list, title: str = "") -> str:
    """The per-layer breakdown table ``trace --profile`` prints.

    *cells* is ``[(label, extra)]``; cells without ``profile.*`` keys are
    skipped.  Deterministic in its inputs.
    """
    lines = []
    header = title or "Per-layer profile (sim self-time)"
    lines.append(header)
    lines.append("=" * len(header))
    profiled = 0
    for label, extra in cells:
        rows = profile_rows(extra)
        if not rows:
            continue
        profiled += 1
        lines.append("")
        lines.append(label)
        lines.append(f"  {'layer':<8}{'spans':>9}{'sim self (s)':>14}"
                     f"{'share':>8}")
        for layer, spans, sim, share in rows:
            lines.append(f"  {layer:<8}{spans:>9}{sim:>14.6f}"
                         f"{100 * share:>7.1f}%")
    if not profiled:
        lines.append("")
        lines.append("(no profiled cells -- build the machine with "
                     "MachineConfig(profile=True))")
    return "\n".join(lines) + "\n"
