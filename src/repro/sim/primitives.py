"""Synchronisation primitives built on events.

These mirror the kernel facilities the paper's code relies on: sleep/wakeup
channels (:class:`WaitQueue`), mutual exclusion (:class:`Lock`), counted
resources (:class:`Semaphore`) and producer/consumer queues
(:class:`FIFOQueue`).  All wakeups are FIFO, matching classic UNIX semantics
closely enough for performance modelling.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator

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

    __slots__ = ("engine", "_waiters")

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self._waiters: deque[Event] = deque()

    def wait(self) -> Event:
        """Return an event that fires at the next signal/broadcast."""
        event = Event(self.engine)
        self._waiters.append(event)
        return event

    def signal(self, value: Any = None) -> bool:
        """Wake the oldest sleeper.  Returns False if nobody was waiting."""
        if not self._waiters:
            return False
        self._waiters.popleft().succeed(value)
        return True

    def broadcast(self, value: Any = None) -> int:
        """Wake every current sleeper; returns the number woken."""
        count = len(self._waiters)
        while self._waiters:
            self._waiters.popleft().succeed(value)
        return count

    def __len__(self) -> int:
        return len(self._waiters)


class Lock:
    """A FIFO mutex.

    Usage from a process::

        yield lock.acquire()
        try:
            ...
        finally:
            lock.release()

    or, with the generator helper::

        yield from lock.holding(critical_section())
    """

    __slots__ = ("engine", "_locked", "_waiters")

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self._locked = False
        self._waiters: deque[Event] = deque()

    @property
    def locked(self) -> bool:
        return self._locked

    def acquire(self) -> Event:
        """Return an event that fires when the caller holds the lock."""
        event = Event(self.engine)
        if not self._locked:
            self._locked = True
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Release; ownership passes immediately to the oldest waiter."""
        if not self._locked:
            raise RuntimeError("release() of an unlocked Lock")
        if self._waiters:
            # Hand off: the lock stays locked and the oldest waiter holds it
            # from now, though it only runs when its acquire event fires.
            self._waiters.popleft().succeed()
        else:
            self._locked = False

    def holding(self, body: Generator) -> Generator:
        """Run generator *body* while holding the lock (released on exit)."""
        yield self.acquire()
        try:
            result = yield from body
        finally:
            self.release()
        return result


class Semaphore:
    """A counted resource with FIFO granting."""

    __slots__ = ("engine", "_count", "_waiters")

    def __init__(self, engine: Engine, count: int) -> None:
        if count < 0:
            raise ValueError("semaphore count must be non-negative")
        self.engine = engine
        self._count = count
        self._waiters: deque[Event] = deque()

    @property
    def available(self) -> int:
        return self._count

    def acquire(self) -> Event:
        event = Event(self.engine)
        if self._count > 0 and not self._waiters:
            self._count -= 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._count += 1


class FIFOQueue:
    """An unbounded producer/consumer queue of items.

    ``put()`` never blocks; ``yield q.get()`` blocks until an item is
    available and resumes with the item.
    """

    __slots__ = ("engine", "_items", "_getters")

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        event = Event(self.engine)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def __len__(self) -> int:
        return len(self._items)
