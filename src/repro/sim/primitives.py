"""Synchronisation primitives built on events.

These mirror the kernel facilities the paper's code relies on: sleep/wakeup
channels (:class:`WaitQueue`) and mutual exclusion (:class:`Lock`).  All
wakeups are FIFO, matching classic UNIX semantics closely enough for
performance modelling.

Every buffer owns a :class:`WaitQueue` and every in-core inode a
:class:`Lock`, and nearly all of them stay empty for their whole life, so
the sleepers are kept in a plain list (56 bytes empty, against 760 for a
``collections.deque``): a queue rarely holds more than a few sleepers, so
the ``pop(0)`` of a wakeup is cheap.
"""

from __future__ import annotations

from typing import Any

from repro.sim.engine import Engine
from repro.sim.events import Event


class WaitQueue:
    """A sleep/wakeup channel (the moral equivalent of ``sleep()``/``wakeup()``).

    Processes ``yield wq.wait()``; ``broadcast()`` wakes all current sleepers,
    ``signal()`` wakes the oldest one.  There is no predicate re-check built
    in; callers loop, exactly like kernel code::

        while buf.busy:
            yield buf.unbusy.wait()
    """

    __slots__ = ("engine", "waiters")

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        #: the sleepers' events, oldest first (a release reads it to skip
        #: waking an empty queue; only this class changes it)
        self.waiters: list[Event] = []

    def wait(self) -> Event:
        """Return an event that fires at the next signal/broadcast."""
        event = Event(self.engine)
        self.waiters.append(event)
        return event

    def signal(self, value: Any = None) -> bool:
        """Wake the oldest sleeper.  Returns False if nobody was waiting."""
        if not self.waiters:
            return False
        self.waiters.pop(0).succeed(value)
        return True

    def broadcast(self, value: Any = None) -> int:
        """Wake every current sleeper; returns the number woken."""
        waiters = self.waiters
        if not waiters:
            return 0
        # succeed() only schedules, so the woken run after this loop: one
        # that sleeps again joins the fresh list, for the next wake-up
        self.waiters = []
        for event in waiters:
            event.succeed(value)
        return len(waiters)

    def __len__(self) -> int:
        return len(self.waiters)


class Lock:
    """A FIFO mutex.

    Usage from a process::

        yield from lock.acquire()
        try:
            ...
        finally:
            lock.release()
    """

    __slots__ = ("engine", "_locked", "_waiters")

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self._locked = False
        self._waiters: list[Event] = []

    @property
    def locked(self) -> bool:
        return self._locked

    def acquire(self) -> tuple:
        """Take the lock; used with ``yield from``.

        Returns ``()`` when the caller holds the lock already: an
        uncontended grant at ``now`` that the engine runs in place.  Any
        other grant returns ``(event,)``, the event firing once the caller
        holds the lock.
        """
        engine = self.engine
        if not self._locked:
            self._locked = True
            if engine._advance_in_place(engine.now):
                return ()
            return (Event(engine).succeed(),)
        event = Event(engine)
        self._waiters.append(event)
        return (event,)

    def release(self) -> None:
        """Release; ownership passes immediately to the oldest waiter."""
        if not self._locked:
            raise RuntimeError("release() of an unlocked Lock")
        if self._waiters:
            # Hand off: the lock stays locked and the oldest waiter holds it
            # from now, though it only runs when its acquire event fires.
            self._waiters.pop(0).succeed()
        else:
            self._locked = False
