"""Plain-text flame summary: where simulated time went, per track.

For every track the sync spans form a forest (the tracer guarantees proper
nesting); this module folds it into ``path -> (total, self, count)``
aggregates -- the text analogue of a flame graph -- and computes *coverage*:
the fraction of the track's active interval attributed to top-level spans.
The harness asserts coverage stays >= 95% on user tracks, so a future layer
that forgets to open spans shows up as a failed benchmark, not as silently
missing data.

The "Category totals" table is the same fold seen per span category.  Its
``self`` column is simulated self-time and is exact: each closed sync span
contributes its duration minus its children's, so a syscall's cache waits
land under ``cache``, not ``syscall``.  Async spans (driver queue
residencies) overlap: they are counted and totalled, never folded, so they
add no self-time.  This is *simulated* time; where the simulator's own host
time goes is ``bench/``'s question (its ``cProfile`` layer fold).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.obs.registry import snapshot

if TYPE_CHECKING:
    from repro.machine import Machine
    from repro.obs.tracer import Tracer


@dataclass
class PathStat:
    """Aggregate for one name-path (e.g. ``syscall.create;cache.bread``)."""

    #: span category of the path's last name
    cat: str = ""
    total: float = 0.0
    self_time: float = 0.0
    count: int = 0


@dataclass
class TrackSummary:
    """One track's folded spans and coverage."""

    track: str
    first: float = 0.0
    last: float = 0.0
    covered: float = 0.0
    paths: dict = field(default_factory=dict)   # path tuple -> PathStat

    @property
    def active(self) -> float:
        return max(0.0, self.last - self.first)

    @property
    def coverage(self) -> float:
        """Fraction of [first span begin, last span end] under a top-level
        span; 1.0 for an empty track."""
        return self.covered / self.active if self.active > 0 else 1.0


def _fold_track(track: str, spans: list) -> TrackSummary:
    """Fold one track's closed sync spans (begin-ordered) into paths."""
    summary = TrackSummary(track=track)
    if not spans:
        return summary
    spans = sorted(spans, key=lambda s: (s.start, -s.end, s.id))
    summary.first = spans[0].start
    summary.last = max(span.end for span in spans)
    by_id = {span.id: span for span in spans}
    path_of: dict[int, tuple] = {}
    child_time: dict[int, float] = {}
    for span in spans:
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is None:
            path = (span.name,)
            summary.covered += span.duration
        else:
            path = path_of[parent.id] + (span.name,)
            child_time[parent.id] = child_time.get(parent.id, 0.0) \
                + span.duration
        path_of[span.id] = path
        stat = summary.paths.setdefault(path, PathStat(cat=span.cat))
        stat.total += span.duration
        stat.count += 1
    for span in spans:
        stat = summary.paths[path_of[span.id]]
        stat.self_time += max(0.0, span.duration
                              - child_time.get(span.id, 0.0))
    return summary


def summarize(tracer: "Tracer") -> dict[str, TrackSummary]:
    """Fold every track; async spans contribute only to category totals."""
    sync_by_track: dict[str, list] = {}
    for span in tracer.spans:
        if span.closed and span.async_id is None:
            sync_by_track.setdefault(span.track, []).append(span)
    return {track: _fold_track(track, spans)
            for track, spans in sync_by_track.items()}


def category_totals(tracer: "Tracer") -> dict[str, tuple[float, float, int]]:
    """``category -> (total seconds, self seconds, span count)`` over all
    closed spans; self-time is :func:`summarize`'s, summed per category."""
    totals: dict[str, tuple[float, float, int]] = {}
    for span in tracer.spans:
        if not span.closed:
            continue
        total, self_time, count = totals.get(span.cat, (0.0, 0.0, 0))
        totals[span.cat] = (total + span.duration, self_time, count + 1)
    for summary in summarize(tracer).values():
        for stat in summary.paths.values():
            total, self_time, count = totals[stat.cat]
            totals[stat.cat] = (total, self_time + stat.self_time, count)
    return totals


def flame_summary(machine: "Machine", label: str = "",
                  max_paths: int = 40) -> str:
    """The human-readable report written next to each exported trace."""
    tracer = machine.tracer
    lines: list[str] = []
    title = f"Flame summary{': ' + label if label else ''}"
    lines.append(title)
    lines.append("=" * len(title))
    lines.append("")
    if tracer.dropped:
        lines.append(f"WARNING: {tracer.dropped} spans dropped at the "
                     f"{tracer.max_spans}-span cap -- totals below "
                     f"undercount (raise tracer.max_spans before the run)")
        lines.append("")
    lines.append("Category totals (simulated seconds):")
    for cat, (total, self_time, count) in sorted(
            category_totals(tracer).items(), key=lambda kv: -kv[1][0]):
        lines.append(f"  {cat:<14} {total:12.6f}s  self {self_time:12.6f}s"
                     f"  {count:8d} spans")
    for track, summary in summarize(tracer).items():
        lines.append("")
        lines.append(f"Track {track}: {summary.active:.6f}s active, "
                     f"{100 * summary.coverage:.1f}% under named spans")
        ranked = sorted(summary.paths.items(),
                        key=lambda kv: -kv[1].total)[:max_paths]
        for path, stat in ranked:
            indent = "  " * len(path)
            lines.append(
                f"{indent}{path[-1]:<28} total {stat.total:10.6f}s  "
                f"self {stat.self_time:10.6f}s  x{stat.count}")
    metrics = snapshot(machine)
    if metrics:
        lines.append("")
        lines.append("Metrics:")
        for name in sorted(metrics):
            value = metrics[name]
            rendered = f"{value:.6f}" if isinstance(value, float) \
                else str(value)
            lines.append(f"  {name:<32} {rendered}")
    return "\n".join(lines)
