"""Measurement: the statistics the paper's tables and figures report.

The instrumented device driver keeps per-request timestamps (like the
paper's 4 MB trace buffer); :func:`collect` reduces a run window to the
metrics of tables 1-2: elapsed time (average among users), CPU time (sum
among users), system-wide disk request count, and the average I/O response /
disk access / driver response times.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.machine import Machine
from repro.obs import snapshot
from repro.sim import Process


@dataclass
class RunResult:
    """One benchmark execution's measurements."""

    scheme: str
    label: str = ""
    #: average elapsed seconds among the "users"
    elapsed: float = 0.0
    #: per-user elapsed times
    user_elapsed: list = field(default_factory=list)
    #: total CPU seconds charged to the user processes
    cpu_time: float = 0.0
    #: system-wide disk requests issued during the run (flush tail included)
    disk_requests: int = 0
    #: average issue-to-completion time (the tables' "I/O Response Time")
    io_response_avg: float = 0.0
    #: average drive service time (figures 1b)
    access_avg: float = 0.0
    #: average wait in the driver queue, issue to dispatch
    queue_avg: float = 0.0
    #: average driver response time = queue + service (figures 2b-4b)
    driver_response_avg: float = 0.0
    #: reads/writes split
    reads: int = 0
    writes: int = 0
    #: host wall-clock seconds the run took (stamped by the runners)
    wall_seconds: float = 0.0
    #: simulator events processed during the run (stamped by the runners)
    sim_events: int = 0
    #: free-form extras (throughput, phase times, ...)
    extra: dict = field(default_factory=dict)

    def as_row(self, columns: list[str]) -> list:
        """Resolve *columns* against the declared fields, then ``extra``.

        Only the dataclass fields above count as attributes here: resolving
        with ``hasattr`` would also match methods and properties (``as_row``
        itself, ``extra``-shadowing helpers added later), silently returning
        a bound method instead of the ``extra`` value of the same name.
        """
        return [getattr(self, column) if column in _RESULT_FIELDS
                else self.extra.get(column, "") for column in columns]


#: the declared measurement columns; computed once, used by as_row
_RESULT_FIELDS = frozenset(f.name for f in fields(RunResult))


def collect(machine: Machine, users: list[Process], after_request_id: int,
            scheme: str = "", label: str = "") -> RunResult:
    """Reduce the driver trace + process accounting to a RunResult.

    Call after the user processes have completed *and* the system has been
    allowed to flush (the disk-request count is system-wide, covering the
    background write tail like the paper's system-wide statistics).  The
    window is everything issued after *after_request_id* (snapshot
    ``machine.driver.last_issued_id`` when the benchmark starts; setup
    writes can share the benchmark's start timestamp, so ids, not times,
    delimit the window).
    """
    result = RunResult(scheme=scheme or machine.scheme_name, label=label)
    result.sim_events = machine.engine.events_processed
    result.user_elapsed = [process.finished_at - process.started_at
                           for process in users]
    if users:
        result.elapsed = sum(result.user_elapsed) / len(users)
        result.cpu_time = sum(process.cpu_time for process in users)
    window = [request for request in machine.driver.trace
              if request.id > after_request_id]
    result.disk_requests = len(window)
    if window:
        result.io_response_avg = (sum(r.response_time for r in window)
                                  / len(window))
        result.access_avg = sum(r.access_time for r in window) / len(window)
        # queue wait is measured from the dispatch stamp, not inferred:
        # driver response = queue + service, per the field's definition.
        # (Requests reach the driver the instant they are issued in this
        # model, so this coincides with io_response_avg -- but computing it
        # from the stamps keeps the identity honest if an upper-level queue
        # ever delays issue.)
        result.queue_avg = sum(r.queue_delay for r in window) / len(window)
        result.driver_response_avg = result.queue_avg + result.access_avg
        result.reads = sum(1 for r in window if not r.is_write)
        result.writes = len(window) - result.reads
    if machine.tracer is not None:
        # observed run: fold the named metrics into the extras so any of
        # them can be cited as a report column by name
        result.extra.update(snapshot(machine))
    return result
