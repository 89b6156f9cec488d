"""Plain-text flame summary: where simulated time went, per track.

For every track the sync spans form a forest (the tracer guarantees proper
nesting); this module folds it into ``path -> (total, self, count)``
aggregates -- the text analogue of a flame graph -- and computes *coverage*:
the fraction of the track's active interval attributed to top-level spans.
The harness asserts coverage stays >= 95% on user tracks, so a future layer
that forgets to open spans shows up as a failed benchmark, not as silently
missing data.

Async spans (driver queue residencies) overlap and are reported as category
totals only, not folded into the nesting.

:func:`profile_rows` is the same fold seen per layer -- ``vfs``, ``cache``,
``scheme``, ``driver``, ``drive``, ``kernel`` -- and
``python -m repro.harness trace <bench> --profile`` renders it.  **Sim
self-time** is exact: each closed sync span contributes its duration minus
its children's, so a syscall's cache waits land under ``cache``, not
``vfs``; async spans are counted, never folded.  This is *simulated* time;
where the simulator's own host time goes is ``bench/``'s question (its
``cProfile`` layer fold), not this table's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.obs.session import Observability
    from repro.obs.tracer import Span


#: the fixed attribution targets of :func:`profile_rows`, pipeline order
LAYERS = ("vfs", "cache", "scheme", "driver", "drive", "kernel")

#: span category -> layer (the syncer is part of the cache layer: its
#: sweeps exist to push the cache's delayed writes); anything else is
#: ``kernel``
CATEGORY_LAYER = {
    "syscall": "vfs",
    "cache": "cache",
    "syncer": "cache",
    "ordering": "scheme",
    "driver": "driver",
    "disk": "drive",
}


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


def summarize(obs: "Observability") -> dict[str, TrackSummary]:
    """Fold every track; async spans contribute only to category totals."""
    sync_by_track: dict[str, list] = {}
    for span in obs.tracer.spans:
        if span.closed and span.async_id is None:
            sync_by_track.setdefault(span.track, []).append(span)
    return {track: _fold_track(track, spans)
            for track, spans in sync_by_track.items()}


def coverage(obs: "Observability",
             tracks: list[str] | None = None) -> dict[str, float]:
    """Coverage fraction per track (optionally restricted to *tracks*)."""
    summaries = summarize(obs)
    if tracks is not None:
        summaries = {track: summary for track, summary in summaries.items()
                     if track in tracks}
    return {track: summary.coverage
            for track, summary in summaries.items()}


def category_totals(obs: "Observability") -> dict[str, tuple[float, int]]:
    """``category -> (total seconds, span count)`` over all closed spans."""
    totals: dict[str, tuple[float, int]] = {}
    for span in obs.tracer.spans:
        if not span.closed:
            continue
        total, count = totals.get(span.cat, (0.0, 0))
        totals[span.cat] = (total + span.duration, count + 1)
    return totals


def flame_summary(obs: "Observability", label: str = "",
                  max_paths: int = 40) -> str:
    """The human-readable report written next to each exported trace."""
    lines: list[str] = []
    title = f"Flame summary{': ' + label if label else ''}"
    lines.append(title)
    lines.append("=" * len(title))
    lines.append("")
    dropped = getattr(obs.tracer, "dropped", 0)
    if dropped:
        lines.append(f"WARNING: {dropped} spans dropped at the "
                     f"{obs.tracer.max_spans}-span cap -- totals below "
                     f"undercount, the --profile table included (raise "
                     f"tracer.max_spans before the run)")
        lines.append("")
    lines.append("Category totals (simulated seconds):")
    for cat, (total, count) in sorted(category_totals(obs).items(),
                                      key=lambda kv: -kv[1][0]):
        lines.append(f"  {cat:<14} {total:12.6f}s  {count:8d} spans")
    for track, summary in summarize(obs).items():
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
    metrics = obs.snapshot()
    if metrics:
        lines.append("")
        lines.append("Metrics:")
        for name in sorted(metrics):
            value = metrics[name]
            rendered = f"{value:.6f}" if isinstance(value, float) \
                else str(value)
            lines.append(f"  {name:<32} {rendered}")
    return "\n".join(lines)


def profile_rows(obs: "Observability") -> list:
    """``[(layer, spans, sim_self, share)]``, one row per :data:`LAYERS`.

    Span counts cover every closed span; sim self-time is the fold's, so
    driver queue residencies (async) count as spans and add no time.
    """
    counts = dict.fromkeys(LAYERS, 0)
    sims = dict.fromkeys(LAYERS, 0.0)
    for cat, (_total, count) in category_totals(obs).items():
        counts[CATEGORY_LAYER.get(cat, "kernel")] += count
    for summary in summarize(obs).values():
        for stat in summary.paths.values():
            sims[CATEGORY_LAYER.get(stat.cat, "kernel")] += stat.self_time
    total = sum(sims.values())
    return [(layer, counts[layer], sims[layer],
             sims[layer] / total if total > 0 else 0.0) for layer in LAYERS]


def format_profile_report(obs: "Observability", title: str = "") -> str:
    """The per-layer breakdown table ``trace --profile`` prints."""
    header = title or "Per-layer profile (sim self-time)"
    lines = [header, "=" * len(header), "",
             f"  {'layer':<8}{'spans':>9}{'sim self (s)':>14}{'share':>8}"]
    for layer, spans, sim, share in profile_rows(obs):
        lines.append(f"  {layer:<8}{spans:>9}{sim:>14.6f}"
                     f"{100 * share:>7.1f}%")
    return "\n".join(lines) + "\n"
