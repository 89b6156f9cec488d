"""Run independent benchmark cells across a multiprocessing pool.

The benchmark grids (tables 1-3, figures 1-6, the extensions) are
embarrassingly parallel: every ``(scheme, config)`` cell builds its own
:class:`~repro.machine.Machine`, runs it to completion, and reduces the
trace to a small result object -- cells share no state.  This module fans a
grid's cells across a pool of forked workers: the work list is a
module-level global installed *before* the pool forks, so child processes
inherit the cell closures by address space and only list indices (and the
small results) cross the pipe.  It is the only pool in ``src/``; the crash
explorer's chunks of crash points (``repro.integrity.explorer``) and the
fault sweep's cells are grid cells too.

Determinism is the contract.  A cell's simulation is bit-identical no
matter which worker runs it (the simulator seeds all randomness and has no
hidden cross-machine state), and :func:`run_grid` returns results keyed in
*input* order regardless of completion order -- so a parallel grid produces
byte-identical tables to a serial one.  ``REPRO_JOBS=1`` forces the serial
path; the suite's CI job diffs the two.

Long sweeps are no longer black boxes: the parallel path supports
**heartbeats** (periodic one-line progress to stderr: cells done/total,
ETA, the slowest in-flight cell) and **stall detection** (a cell in flight
longer than the timeout aborts the grid with :class:`GridStallError`
*naming* the stuck ``(scheme, config)`` key, instead of hanging forever).
Both ride on a lock-free shared start-stamp array the forked workers
inherit; neither touches results, so a heartbeat-monitored grid stays
byte-identical to a silent one.  ``REPRO_HEARTBEAT`` / ``REPRO_STALL_TIMEOUT``
(seconds; 0 disables) set session-wide defaults.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Optional

__all__ = ["Cell", "GridCellError", "GridStallError", "Heartbeat",
           "default_jobs", "heartbeat_interval", "run_grid", "stall_timeout"]


@dataclass
class Cell:
    """One independent grid cell: a key and a zero-argument experiment."""

    key: Any
    fn: Callable[[], Any]


def _env_seconds(name: str) -> float:
    """A non-negative float from the environment (unset/invalid -> 0)."""
    try:
        return max(0.0, float(os.environ.get(name, "") or 0.0))
    except ValueError:
        return 0.0


def heartbeat_interval() -> float:
    """Default heartbeat period in seconds (``REPRO_HEARTBEAT``; 0 = off)."""
    return _env_seconds("REPRO_HEARTBEAT")


def stall_timeout() -> float:
    """Default stall timeout in seconds (``REPRO_STALL_TIMEOUT``; 0 = off)."""
    return _env_seconds("REPRO_STALL_TIMEOUT")


class GridStallError(RuntimeError):
    """A cell stayed in flight past the stall timeout.

    Raised in the parent while the pool is being torn down, naming the
    stuck cell key -- the alternative is a sweep that hangs forever with
    no clue which ``(scheme, config)`` cell wedged.
    """

    def __init__(self, grid: str, key: Any, age: float, timeout: float,
                 done: int, total: int) -> None:
        super().__init__(
            f"{grid} cell {key!r} stalled: in flight for "
            f"{age:.1f}s, past the {timeout:.1f}s stall timeout "
            f"({done}/{total} cells had completed)")
        self.grid = grid
        self.key = key
        self.age = age
        self.timeout = timeout


@dataclass
class Heartbeat:
    """Progress/stall monitor for one fork pool's result stream.

    :meth:`drain` wraps a ``pool.imap_unordered`` iterator whose items
    lead with the task index; between results it reads *starts* (a shared
    ``'d'`` array the workers stamp with ``time.time()`` as they pick up a
    task) to see what is in flight.  Pure observer: yields every item
    unchanged, in arrival order.
    """

    name: str
    labels: list
    interval: float = 0.0
    timeout: float = 0.0
    emit: Optional[Callable[[str], None]] = None

    @property
    def active(self) -> bool:
        return self.interval > 0.0 or self.timeout > 0.0

    def _emit(self, line: str) -> None:
        if self.emit is not None:
            self.emit(line)
        else:
            print(line, file=sys.stderr, flush=True)

    def drain(self, iterator, starts):
        """Yield from *iterator*, heartbeating/stall-checking on gaps."""
        total = len(self.labels)
        candidates = [t for t in (self.interval, self.timeout) if t > 0.0]
        poll = max(0.02, min(candidates) / 2) if candidates else None
        begun = last_beat = time.time()
        done = 0
        finished: set[int] = set()
        while done < total:
            try:
                item = iterator.next(timeout=poll)
            except StopIteration:
                return
            except multiprocessing.TimeoutError:
                now = time.time()
                in_flight = sorted(
                    ((now - starts[i], i) for i in range(total)
                     if starts[i] > 0.0 and i not in finished),
                    reverse=True)
                if self.timeout > 0.0 and in_flight \
                        and in_flight[0][0] > self.timeout:
                    age, index = in_flight[0]
                    raise GridStallError(self.name, self.labels[index],
                                         age, self.timeout, done, total)
                if self.interval > 0.0 and now - last_beat >= self.interval:
                    last_beat = now
                    self._emit(self._format(done, total, in_flight,
                                            now - begun))
                continue
            finished.add(item[0])
            done += 1
            yield item

    def _format(self, done: int, total: int, in_flight: list,
                elapsed: float) -> str:
        line = (f"[{self.name}] {done}/{total} cells done, "
                f"{len(in_flight)} in flight, elapsed {elapsed:.1f}s")
        if done:
            eta = (total - done) * elapsed / done
            line += f", eta ~{eta:.1f}s"
        if in_flight:
            age, index = in_flight[0]
            line += f", slowest in-flight {self.labels[index]} ({age:.1f}s)"
        return line


class GridCellError(RuntimeError):
    """A grid cell's experiment raised.

    Raised by :func:`run_grid` in the parent process, naming the grid and
    the failing cell key -- a bare exception surfacing from a fork-pool
    worker would otherwise leave no clue *which* (scheme, config) cell
    died.  The worker-side traceback is carried in ``cell_traceback`` and
    included in the message.
    """

    def __init__(self, grid: str, key: Any, error: str, tb: str) -> None:
        super().__init__(
            f"grid {grid!r} cell {key!r} failed: {error}\n"
            f"--- worker traceback ---\n{tb}")
        self.grid = grid
        self.key = key
        self.error = error
        self.cell_traceback = tb


@dataclass
class _CellFailure:
    """Worker-side capture of a cell exception (picklable, unlike many
    exception objects with machine state attached)."""

    error: str
    traceback: str


#: the active grid's cells; a module-level global so forked workers inherit
#: the closures and :func:`_run_cell` only needs an index (closures over
#: local state cannot cross a pickle boundary)
_WORK: list[Cell] = []

#: shared per-cell start stamps (host epoch seconds), written lock-free by
#: whichever worker picks the cell up; 0.0 = not started yet.  Inherited
#: by fork like _WORK.
_STARTS = None


def _attempt(cell: Cell):
    """The cell's result, or its exception captured as a _CellFailure."""
    try:
        return cell.fn()
    except Exception as exc:
        return _CellFailure(f"{type(exc).__name__}: {exc}",
                            traceback.format_exc())


def _run_cell(index: int):
    if _STARTS is not None:
        _STARTS[index] = time.time()
    return index, _attempt(_WORK[index])


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` if set, else the machine's core count."""
    env = os.environ.get("REPRO_JOBS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def run_grid(name: str, cells: list, jobs: Optional[int] = None,
             heartbeat: Optional[float] = None,
             stall: Optional[float] = None,
             on_heartbeat: Optional[Callable[[str], None]] = None) -> dict:
    """Run every cell; return ``{key: result}`` in input order.

    *cells* is a list of :class:`Cell` or ``(key, fn)`` pairs with
    distinct keys (a repeated key is a ``ValueError`` before any cell
    runs: the mapping could hold only one of its results).  Runs
    serially when *jobs* resolves to 1, when only one cell exists, or when
    the platform cannot fork (the pool pattern requires inherited memory);
    otherwise fans out over a fork pool.  Either way the returned mapping
    is identical -- completion order never leaks into the results.

    *heartbeat* emits a progress line (via *on_heartbeat*, default stderr)
    every that-many seconds while cells are in flight; *stall* aborts with
    :class:`GridStallError` naming the stuck cell once any single cell has
    been in flight that long.  ``None`` defers to ``REPRO_HEARTBEAT`` /
    ``REPRO_STALL_TIMEOUT``; both apply only to the fork-pool path (a
    serial run cannot observe its own wedged cell from within).
    """
    cells = [cell if isinstance(cell, Cell) else Cell(*cell)
             for cell in cells]
    seen = set()
    for cell in cells:
        if cell.key in seen:
            raise ValueError(f"grid {name!r}: duplicate cell key "
                             f"{cell.key!r} (its result would be dropped)")
        seen.add(cell.key)
    if jobs is None:
        jobs = default_jobs()
    if heartbeat is None:
        heartbeat = heartbeat_interval()
    if stall is None:
        stall = stall_timeout()
    methods = multiprocessing.get_all_start_methods()
    parallel = jobs > 1 and len(cells) > 1 and "fork" in methods

    if parallel:
        global _WORK, _STARTS
        outcomes: list = [None] * len(cells)
        monitor = Heartbeat(name=f"grid {name}",
                            labels=[str(cell.key) for cell in cells],
                            interval=heartbeat, timeout=stall,
                            emit=on_heartbeat)
        starts = multiprocessing.Array("d", len(cells), lock=False) \
            if monitor.active else None
        previous, _WORK = _WORK, cells
        previous_starts, _STARTS = _STARTS, starts
        try:
            context = multiprocessing.get_context("fork")
            with context.Pool(min(jobs, len(cells))) as pool:
                results_iter = pool.imap_unordered(
                    _run_cell, range(len(cells)), chunksize=1)
                if monitor.active:
                    results_iter = monitor.drain(results_iter, starts)
                for index, result in results_iter:
                    outcomes[index] = result
        finally:
            _WORK = previous
            _STARTS = previous_starts
    else:
        outcomes = [_attempt(cell) for cell in cells]

    # surface the first failure in *input* order (deterministic no matter
    # which worker hit it or when), naming the cell that died
    for cell, result in zip(cells, outcomes):
        if isinstance(result, _CellFailure):
            raise GridCellError(name, cell.key, result.error,
                                result.traceback)
    return {cell.key: result for cell, result in zip(cells, outcomes)}
