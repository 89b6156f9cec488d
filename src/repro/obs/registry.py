"""The metric names: one table, read from the layers' own counters.

A layer counts into its own plain attributes, always (``cache.hits``,
``driver.retries``, ``disk.stats`` ...); nothing in a layer knows this
module exists.  :data:`METRICS` and :data:`TIMINGS` name every number a
traced run reports and say where to read it; :func:`snapshot` evaluates them
against one machine into the flat ``{name: number}`` dict that rides
``RunResult.extra``, the flame summary and the exported trace.
``docs/observability.md`` lists the same names;
``tests/test_metric_census.py`` holds the two together.

A :data:`METRICS` getter that returns ``None`` leaves its name out: the
soft-updates rows under every other scheme, and the names that appear only
once counted (syscalls, ordering decisions, recovery), so a fault-free
snapshot carries no fault names and a scheme's snapshot no other scheme's
decisions.  A :data:`TIMINGS` getter returns ``(count, seconds)``, reported
as ``name.count`` / ``name.sum`` / ``name.avg``.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from repro.machine import Machine

def _manager(name: str) -> Callable:
    """A soft-updates manager counter (None: the scheme has no manager)."""
    return lambda m: getattr(getattr(m.scheme, "manager", None), name, None)


def _syscall(name: str) -> tuple:
    """Calls of one syscall, absent until the first."""
    return (f"syscall.{name}", lambda m: m.fs.op_counts.get(name))


def _decision(name: str) -> tuple:
    """An ordering scheme's named count, absent until first counted."""
    return (name, lambda m: m.scheme.counts.get(name))


def _completed(is_write: bool) -> Callable:
    """Completed requests of one direction, off the driver's trace."""
    return lambda m: m.driver.trace.writes.count(is_write)


def _queue_wait(m: "Machine") -> tuple:
    # summed left to right, in completion order, like every other total
    # here (the builtin sum() compensates on some Python versions)
    issued, dispatched, _ = m.driver.trace.stamps
    total = 0.0
    for issue, dispatch in zip(issued, dispatched):
        total += dispatch - issue
    return len(issued), total


#: ``(name, getter(machine))`` in reporting order.  The order is the
#: one the copy and remove benchmarks first count things in (``mkdir``
#: opens both, the first ordering decision falls inside it), which keeps
#: an exported trace byte-comparable with the records made so far.
METRICS = (
    ("engine.events", attrgetter("engine.events_processed")),
    ("tracer.spans_dropped",
     lambda m: m.tracer.dropped if m.tracer is not None else None),
    ("disk.seek_time", attrgetter("disk.stats.seek_time")),
    ("disk.rotation_time", attrgetter("disk.stats.rotation_time")),
    ("disk.transfer_time", attrgetter("disk.stats.transfer_time")),
    ("disk.cache_hit_reads", attrgetter("disk.stats.cache_hit_reads")),
    ("driver.reads", _completed(False)),
    ("driver.writes", _completed(True)),
    ("driver.flagged_writes", attrgetter("driver.flagged_writes")),
    ("driver.batches", attrgetter("driver.batches")),
    ("cache.lock_waits", attrgetter("cache.lock_waits")),
    ("cache.hits", attrgetter("cache.hits")),
    ("cache.misses", attrgetter("cache.misses")),
    ("cache.forced_flushes", attrgetter("cache.flushes_forced")),
    ("cache.reclaim_waits", attrgetter("cache.reclaim_waits")),
    ("syncer.wakeups", attrgetter("syncer.wakeups")),
    ("syncer.writes_started", attrgetter("syncer.writes_started")),
    ("syncer.sweep_dirty", attrgetter("syncer.sweep_dirty")),
    ("softupdates.rollbacks", _manager("rollbacks")),
    ("softupdates.deps_created", _manager("deps_created")),
    ("softupdates.cancelled_adds", _manager("cancelled_adds")),
    ("softupdates.workitems", _manager("workitems_serviced")),
    _syscall("mkdir"),
    *map(_decision, ("ordering.sync_stall", "ordering.journal_commit",
                     "ordering.delayed_writes", "ordering.flag_tags",
                     "ordering.chain_links", "journal.commits",
                     "journal.checkpoints", "journal.degraded")),
    *map(_syscall, ("create", "write", "close", "sync", "readdir", "stat",
                    "open", "read", "unlink", "rmdir", "link", "rename",
                    "truncate", "fsync")),
    ("driver.retries", lambda m: m.driver.retries or None),
    ("disk.faults",
     lambda m: m.disk.stats.read_faults + m.disk.stats.write_faults or None),
    ("driver.queue_peak", attrgetter("driver.queue_peak")),
)

#: ``(name, getter(machine) -> (count, seconds))``, reported after the above
TIMINGS = (
    ("disk.service_time", lambda m: (m.disk.stats.service_times.count,
                                     m.disk.stats.service_times.total)),
    ("driver.queue_wait", _queue_wait),
    ("cache.lock_wait", lambda m: (m.cache.lock_waits,
                                   m.cache.lock_wait_time)),
)


def snapshot(machine: "Machine") -> dict:
    """Evaluate the two tables against *machine*: ``{name: number}``."""
    flat: dict = {}
    for name, get in METRICS:
        value = get(machine)
        if value is not None:
            flat[name] = value
    for name, get in TIMINGS:
        count, total = get(machine)
        flat[f"{name}.count"] = count
        flat[f"{name}.sum"] = total
        flat[f"{name}.avg"] = total / count if count else 0.0
    return flat
