"""Generator-based simulated processes.

A :class:`Process` drives a generator: each value the generator yields must be
an :class:`~repro.sim.events.Event`; the process sleeps until the event fires
and is resumed with the event's value (or has the event's exception thrown
into it).  A process is itself an event, so processes can ``yield`` other
processes to join them, and ``return`` values propagate to joiners.

Sub-operations compose with ``yield from``, exactly like kernel code calling
helper routines that may block::

    def syscall(fs, path):
        inode = yield from fs.namei(path)     # may block on disk reads
        return inode
"""

from __future__ import annotations

from typing import Generator

from repro.sim.engine import Engine
from repro.sim.events import Event


class ProcessCrashed(RuntimeError):
    """Wraps an exception that escaped a simulated process."""

    def __init__(self, process: "Process", original: BaseException) -> None:
        super().__init__(f"process {process.name!r} crashed: {original!r}")
        self.process = process
        self.original = original


class Process(Event):
    """A running simulated process; also an event that fires on completion.

    Attributes of interest to instrumentation:

    * ``name`` -- label for traces and error messages.
    * ``cpu_time`` -- seconds of CPU charged via :class:`repro.sim.cpu.CPU`.
    * ``started_at`` / ``finished_at`` -- simulated lifetime bounds.
    """

    __slots__ = ("generator", "name", "cpu_time", "started_at", "finished_at")

    def __init__(self, engine: Engine, generator: Generator, name: str = "") -> None:
        super().__init__(engine)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.cpu_time = 0.0
        self.started_at = engine.now
        self.finished_at: float | None = None
        # Kick off on the next dispatch, at the current time.  The bootstrap
        # event goes through the ordinary succeed() path so process start
        # order is FIFO like every other equal-time event.
        start = Event(engine)
        start.callbacks.append(self._resume)
        start.succeed()

    @property
    def alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def _process(self) -> None:
        # A process that crashes with nobody joining it (no callbacks) would
        # otherwise die silently and deadlock everything that depends on its
        # side effects -- surface the crash at the engine loop instead.
        had_watchers = bool(self.callbacks)
        super()._process()
        if not self.ok and not had_watchers:
            raise self.value

    def _resume(self, fired: Event) -> None:
        """Advance the generator by one step.  Engine callback only."""
        # The hottest frame after the run loop, hence the direct slot reads
        # and the inlined Event._add_callback at the end.
        engine = self.engine
        previous = engine.current_process
        engine.current_process = self
        try:
            failure = fired._exc
            if failure is None:
                # The bootstrap event's value is None, so the first resume is
                # the generator-protocol-required send(None).
                target = self.generator.send(fired._value)
            else:
                target = self.generator.throw(failure)
        except StopIteration as stop:
            self.finished_at = engine.now
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - deliberate boundary
            self.finished_at = engine.now
            self.fail(ProcessCrashed(self, exc))
            return
        finally:
            engine.current_process = previous
        if not isinstance(target, Event):
            crash = TypeError(
                f"process {self.name!r} yielded {target!r}; processes must "
                f"yield Event instances")
            self.finished_at = engine.now
            self.fail(ProcessCrashed(self, crash))
            return
        if target._processed:
            engine._deferred.append((self._resume, target))
        else:
            target.callbacks.append(self._resume)

    def __repr__(self) -> str:
        state = "done" if self.triggered else "alive"
        return f"<Process {self.name!r} {state}>"
