"""The discrete-event engine: clock, event queue, and dispatch loop.

The engine is the whole event kernel: it owns the simulated clock, a binary
heap of ``(time, sequence, event)`` entries, the queue of late callback
subscriptions, and the one loop that dispatches them (``run``,
``run_until`` and ``run_until_finished`` are entry points over it; ``step``
dispatches a single event).
It is deliberately not swappable (``docs/performance.md`` has the
measurement), so events push onto the heap directly and a scheduling fast
path has one place to land.  Tracing reads the clock and never touches the
loop, so a traced run schedules exactly as an untraced one.

That fast path is :meth:`Engine._advance_in_place`.  A process about to
suspend on its own wake-up at ``when`` keeps running instead, with ``now``
advanced to ``when`` and nothing pushed, when the engine can prove that
wake-up is its next dispatch: no deferred callback is queued, another entry
is on the heap and ``when`` is strictly before it (a tie keeps its sequence
order), ``when`` is within the running loop's horizon (``until`` for
``run``), and the loop's event budget has room.  Work run in place still
counts in ``events_processed``.  The horizon is ``-inf`` outside the
dispatch loop and under :meth:`Engine.step`, so nothing runs in place
there; the callbacks of one event other than its last, and whatever runs
once ``run_until``'s awaited event is dispatched, run with it at ``-inf``
too, so nobody that would have run first is overtaken.  Once a process
has finished, nothing runs in place until its completion event (queued at
``now``) is dispatched, which is why ``run_until_finished`` may stop a
dispatch short of it.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop
from typing import Any, Generator, Optional

from repro.sim.events import Event, Timeout

__all__ = ["Engine", "SimulationError"]

_INF = float("inf")
_NEG_INF = float("-inf")


class SimulationError(RuntimeError):
    """Raised when the simulation cannot make progress or a process crashed."""


class _Finished:
    """What :meth:`Engine.run_until_finished` awaits: "processed" as soon
    as its process has finished (triggered), a dispatch before its
    completion event is.  It is never on the heap."""

    __slots__ = ("process",)

    def __init__(self, process) -> None:
        self.process = process

    @property
    def _processed(self) -> bool:
        return self.process._triggered


class Engine:
    """The event loop and simulated clock.

    The engine holds a heap of ``(time, sequence, event)`` entries.  Entries
    at equal times fire in insertion order, which makes every simulation run
    fully deterministic for a given seed.

    Typical use::

        eng = Engine()

        def worker():
            yield eng.timeout(1.5)
            return "done"

        proc = eng.process(worker())
        eng.run_until(proc)
        assert eng.now == 1.5 and proc.value == "done"
    """

    __slots__ = ("now", "current_process", "tracer", "events_processed",
                 "_heap", "_seq", "_deferred", "_horizon", "_budget")

    def __init__(self) -> None:
        self.now: float = 0.0
        #: the process currently being resumed (None outside process context)
        self.current_process = None
        #: the machine's span tracer (None = tracing off); the machine sets
        #: it before any component is constructed
        self.tracer = None
        #: total events dispatched since construction (instrumentation)
        self.events_processed = 0
        #: the event queue; :mod:`repro.sim.events` pushes onto it directly
        #: (``_seq`` breaks timestamp ties in schedule order)
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        #: late subscriptions to already-processed events, delivered before
        #: the next dispatch and after every one, so a run that stops first
        #: can never silently drop one
        self._deferred: deque = deque()
        #: the latest time the dispatch loop would still dispatch, and the
        #: ``events_processed`` count its budget runs out at; ``-inf`` when
        #: nothing may run in place (see the module docstring)
        self._horizon = _NEG_INF
        self._budget = _INF

    # -- event construction ---------------------------------------------
    def event(self) -> Event:
        """Create an untriggered one-shot event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value)

    def hold(self, delay: float) -> tuple:
        """Sleep the calling process for *delay* simulated seconds.

        Used with ``yield from``: returns ``()`` when the wake-up runs in
        place, else ``(Timeout,)`` to suspend on::

            yield from engine.hold(seek_time)
        """
        if not 0.0 <= delay < _INF:
            raise ValueError(
                f"timeout delay must be finite and non-negative: {delay}")
        if self._advance_in_place(self.now + delay):
            return ()
        return (Timeout(self, delay),)

    def process(self, generator: Generator, name: str = "") -> "Process":  # noqa: F821
        """Spawn *generator* as a simulated process, started on the next step."""
        from repro.sim.process import Process

        return Process(self, generator, name=name)

    def _advance_in_place(self, when: float, events: int = 1) -> bool:
        """Run the caller's next *events* dispatches, up to *when*, in place.

        True when they are provably what the running loop would dispatch
        next (the module docstring states the proof): the clock moves to
        *when* and ``events_processed`` counts them.  False leaves
        everything as it was, and the caller schedules its wake-up.
        """
        heap = self._heap
        if (when <= self._horizon and heap and when < heap[0][0]
                and not self._deferred
                and self.events_processed + events <= self._budget):
            self.now = when
            self.events_processed += events
            return True
        return False

    # -- dispatch ---------------------------------------------------------
    def _drain_deferred(self) -> None:
        deferred = self._deferred
        while deferred:
            fn, event = deferred.popleft()
            fn(event)

    def step(self) -> None:
        """Process the single next event; nothing runs in place here."""
        if self._deferred:
            self._drain_deferred()
        if not self._heap:
            raise SimulationError("step() on an empty event heap")
        when, _seq, event = heappop(self._heap)
        if when < self.now:
            raise SimulationError(f"time went backwards: {when} < {self.now}")
        self.now = when
        self.events_processed += 1
        event._process()

    def _dispatch(self, until: float, awaited: Optional[Event],
                  max_events: Optional[int]) -> None:
        """The one dispatch loop, under :meth:`run`, :meth:`run_until` and
        :meth:`run_until_finished`.

        Dispatches until *awaited* has been processed, the next event is
        past *until*, or the heap drains (an error when something is
        awaited).  It inlines :meth:`step`'s body: one iteration per event
        makes it the hottest frame of every simulation.
        """
        heap = self._heap
        deferred = self._deferred
        drains = awaited is None
        if drains:
            # an event nobody fires: run() stops on *until* or an empty heap
            awaited = Event(self)
        if max_events is not None:
            budget = self.events_processed + max_events
        else:
            budget = _INF
        if not awaited._processed:
            self._horizon = until
            self._budget = budget
        try:
            if deferred:
                self._drain_deferred()
            while not awaited._processed:
                if not heap:
                    if drains:
                        break
                    raise SimulationError(
                        f"event heap drained at t={self.now:.6f} before the "
                        "awaited event fired (deadlock or missing wakeup)")
                if heap[0][0] > until:
                    break
                if max_events is not None and self.events_processed >= budget:
                    raise SimulationError(
                        f"exceeded max_events={max_events} "
                        f"at t={self.now:.6f}")
                when, _seq, event = heappop(heap)
                if when < self.now:
                    raise SimulationError(
                        f"time went backwards: {when} < {self.now}")
                self.now = when
                self.events_processed += 1
                if event is awaited:
                    # the loop stops here: whoever this wakes must not run on
                    self._horizon = _NEG_INF
                event._process()
                if deferred:
                    self._drain_deferred()
        finally:
            self._horizon = _NEG_INF

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, the clock passes *until*, or *max_events*.

        ``until`` is an absolute simulated time; events scheduled at exactly
        *until* are processed, and the clock is left at ``max(now, until)``
        whether the queue drained early or still holds later events (in
        particular the clock never moves backwards when *until* is already in
        the past).  ``max_events`` is a safety valve for tests: the loop
        dispatches at most that many events, those run in place included,
        and raises :class:`SimulationError` when one more would be needed,
        rather than hanging.
        """
        self._dispatch(_INF if until is None else until, None, max_events)
        if until is not None and until > self.now:
            self.now = until

    def run_to(self, when: float, max_events: Optional[int] = None) -> None:
        """Advance the clock to the absolute instant *when*: ``run(until=when)``.

        Every event scheduled at or before *when* is processed (inclusive:
        two runs stopped at the same instant see the same event prefix, which
        is what makes crash-state replay deterministic).
        """
        self.run(until=when, max_events=max_events)

    def run_until(self, event: Event, max_events: Optional[int] = None) -> Any:
        """Run until *event* has been processed; return its value.

        Raises the event's exception if it failed, and
        :class:`SimulationError` if the queue drains first.
        """
        self._dispatch(_INF, event, max_events)
        if not event.ok:
            raise event.value
        return event.value

    def run_until_finished(self, process: "Process",  # noqa: F821
                           max_events: Optional[int] = None) -> None:
        """Run until *process*'s generator has finished, and stop there.

        The loop stops after the dispatch the process finished in; its
        completion event stays queued, so the clock, the heap and
        ``events_processed`` are what single-stepping until
        ``process.triggered`` leaves (late subscriptions that dispatch
        queued are delivered before it returns, as after every dispatch of
        the loop; ``step`` delivers them before its next event).  Raises
        :class:`SimulationError` as :meth:`run_until` does; a process that
        crashed is the caller's to read (``process.ok``).
        """
        self._dispatch(_INF, _Finished(process), max_events)

    # -- introspection -----------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Scheduled-but-undispatched entries (the queue length)."""
        return len(self._heap)

    def __repr__(self) -> str:
        return f"<Engine t={self.now:.6f} pending={len(self._heap)}>"
