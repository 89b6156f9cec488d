"""Span recording on the simulated clock.

A :class:`Span` is one named interval of simulated time on a *track* (a
simulated process, the device driver queue, or the drive head).  Spans nest:
``begin`` pushes onto the track's open-span stack and records the innermost
open span as the parent, so a syscall span parents the buffer-cache waits it
contains, which parent the driver/drive work they trigger (cross-track
parents are threaded explicitly, e.g. through ``DiskRequest.trace_parent``).

The tracer is strictly passive: it reads ``engine.now`` and appends to a
list.  It never creates events, never touches the engine heap, and therefore
can never perturb simulated timestamps -- the property
``tests/obs/test_equivalence.py`` verifies end to end.

Sync spans (``begin``/``end``, or retrospective :meth:`Tracer.record`) must
nest properly within their track; overlapping intervals -- driver queue
residencies, in-flight writes -- are recorded as *async* spans
(:meth:`Tracer.record` with an ``async_id``), which the Perfetto exporter
emits as ``b``/``e`` event pairs keyed by id instead of complete events.

Memory is bounded: the span list stops growing at ``max_spans`` (default
:data:`DEFAULT_MAX_SPANS`; assign ``tracer.max_spans`` before the run).
Past the cap, spans still *behave* normally -- ids advance, nesting
stacks stay consistent -- but they are not retained; ``Tracer.dropped``
counts them (reported as the ``tracer.spans_dropped`` metric and flagged
by the flame summary), so always-on tracing over million-event sweeps
degrades to a warning instead of exhausting RAM.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from repro.sim.engine import Engine

#: track used when no simulated process is current (driver completions,
#: engine callbacks)
KERNEL_TRACK = "kernel"

#: retained-span ceiling unless ``tracer.max_spans`` says otherwise; 0 or
#: a negative value disables the cap (a span is ~200 bytes; 1M spans
#: keeps worst-case tracer memory in the hundreds of MB, far below a
#: million-event distributed sweep's output)
DEFAULT_MAX_SPANS = 1_000_000


class Span:
    """One recorded interval.  ``end < 0`` means still open."""

    __slots__ = ("id", "name", "cat", "track", "start", "end", "parent",
                 "args", "async_id")

    def __init__(self, span_id: int, name: str, cat: str, track: str,
                 start: float, parent: Optional[int],
                 args: Optional[dict] = None,
                 async_id: Optional[int] = None) -> None:
        self.id = span_id
        self.name = name
        self.cat = cat
        self.track = track
        self.start = start
        self.end = -1.0
        self.parent = parent
        self.args = args
        self.async_id = async_id

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    @property
    def closed(self) -> bool:
        return self.end >= 0.0

    def __repr__(self) -> str:
        state = f"{self.start:.6f}..{self.end:.6f}" if self.closed \
            else f"{self.start:.6f}.."
        return f"<Span #{self.id} {self.name!r} [{self.cat}] {state}>"


class Tracer:
    """Collects spans against one engine's simulated clock."""

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.spans: list[Span] = []
        self._next_id = 0
        #: per-track stacks of currently open sync spans
        self._stacks: dict[str, list[Span]] = {}
        #: retained-span ceiling; <= 0 means unbounded
        self.max_spans = DEFAULT_MAX_SPANS
        #: spans not retained because the cap was hit
        self.dropped = 0

    def _retain(self, span: Span) -> None:
        """Append *span* unless the cap is hit (then count the drop)."""
        if self.max_spans > 0 and len(self.spans) >= self.max_spans:
            self.dropped += 1
            return
        self.spans.append(span)

    # -- track resolution ----------------------------------------------
    def _track(self, track: Optional[str]) -> str:
        if track is not None:
            return track
        process = self.engine.current_process
        return process.name if process is not None else KERNEL_TRACK

    def current(self, track: Optional[str] = None) -> Optional[int]:
        """Id of the innermost open span on *track* (default: current
        process's track); None when nothing is open there."""
        stack = self._stacks.get(self._track(track))
        return stack[-1].id if stack else None

    # -- sync spans ------------------------------------------------------
    def begin(self, name: str, cat: str, track: Optional[str] = None,
              parent: Optional[int] = None,
              args: Optional[dict] = None) -> Span:
        """Open a span at ``engine.now``; returns the handle to pass to
        :meth:`end`.  Parent defaults to the innermost open span on the
        same track."""
        track = self._track(track)
        stack = self._stacks.setdefault(track, [])
        if parent is None and stack:
            parent = stack[-1].id
        self._next_id += 1
        span = Span(self._next_id, name, cat, track, self.engine.now,
                    parent, args)
        stack.append(span)
        self._retain(span)
        return span

    def end(self, span: Span, args: Optional[dict] = None) -> Span:
        """Close *span* at ``engine.now``."""
        span.end = self.engine.now
        if args:
            span.args = {**(span.args or {}), **args}
        stack = self._stacks.get(span.track)
        if stack and span in stack:
            # close any children left open (crash/exception unwind)
            while stack:
                top = stack.pop()
                if top is span:
                    break
                if not top.closed:
                    top.end = self.engine.now
        return span

    # -- retrospective spans ----------------------------------------------
    def record(self, name: str, cat: str, start: float, end: float,
               track: str, parent: Optional[int] = None,
               args: Optional[dict] = None,
               async_id: Optional[int] = None) -> Span:
        """Record an already-finished interval from saved timestamps.

        Used where the natural instrumentation point is a completion path
        that already holds begin/end stamps (the driver trace, the drive's
        mechanical phases).  Without *async_id* the interval must nest
        properly within *track*; an interval that may overlap others there
        (driver queue residency) passes an *async_id*, which groups its
        begin/end pair in the Perfetto export.
        """
        self._next_id += 1
        span = Span(self._next_id, name, cat, track, start, parent, args,
                    async_id=async_id)
        span.end = end
        self._retain(span)
        return span

    # -- introspection ---------------------------------------------------
    def tracks(self) -> list[str]:
        seen: dict[str, None] = {}
        for span in self.spans:
            seen.setdefault(span.track)
        return list(seen)

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:
        return f"<Tracer spans={len(self.spans)} tracks={len(self.tracks())}>"
