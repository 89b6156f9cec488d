"""Run independent benchmark cells across a multiprocessing pool.

The benchmark grids (tables 1-3, figures 1-6, the extensions) are
embarrassingly parallel: every ``(scheme, config)`` cell builds its own
:class:`~repro.machine.Machine`, runs it to completion, and reduces the
trace to a small result object -- cells share no state.  This module fans a
grid's cells across a pool of forked workers: the work list is a
module-level global installed *before* the pool forks, so child processes
inherit the cell closures by address space and only list indices (and the
small results) cross the pipe.  It is the only pool in ``src/``; the fault
sweep's cells are grid cells too.

Determinism is the contract.  A cell's simulation is bit-identical no
matter which worker runs it (the simulator seeds all randomness and has no
hidden cross-machine state), and :func:`run_grid` returns results keyed in
*input* order regardless of completion order -- so a parallel grid produces
byte-identical tables to a serial one.  ``REPRO_JOBS=1`` forces the serial
path; the suite's CI job diffs the two.

A cell that raises fails the grid with :class:`GridCellError` naming it.
A cell that never returns is its simulation's problem, not the pool's:
every sweep bounds its runs with an event budget, so a wedge surfaces as
an exception in the cell that wedged.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Optional

__all__ = ["GridCellError", "default_jobs", "run_grid"]


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


#: the active grid's cell functions; a module-level global so forked
#: workers inherit the closures and :func:`_run_cell` only needs an index
#: (closures over local state cannot cross a pickle boundary)
_WORK: list[Callable[[], Any]] = []


def _attempt(fn: Callable[[], Any]):
    """The cell's result, or its exception captured as a _CellFailure."""
    try:
        return fn()
    except Exception as exc:
        return _CellFailure(f"{type(exc).__name__}: {exc}",
                            traceback.format_exc())


def _run_cell(index: int):
    return _attempt(_WORK[index])


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` if set, else the machine's core count.

    A ``REPRO_JOBS`` that is not an integer of at least 1 is a
    ``ValueError``.
    """
    env = os.environ.get("REPRO_JOBS")
    if not env:
        return os.cpu_count() or 1
    try:
        jobs = int(env)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ValueError(f"REPRO_JOBS must be an integer >= 1, got {env!r}")
    return jobs


def run_grid(name: str, cells: list, jobs: Optional[int] = None) -> dict:
    """Run every cell; return ``{key: result}`` in input order.

    *cells* is a list of ``(key, fn)`` pairs with distinct keys (a repeated
    key is a ``ValueError`` before any cell runs: the mapping could hold
    only one of its results).  Runs serially when *jobs* resolves to 1,
    when only one cell exists, or when the platform cannot fork (the pool
    pattern requires inherited memory); otherwise fans out over a fork
    pool.  Either way the returned mapping is identical -- completion
    order never leaks into the results.
    """
    keys = [key for key, _fn in cells]
    fns = [fn for _key, fn in cells]
    seen = set()
    for key in keys:
        if key in seen:
            raise ValueError(f"grid {name!r}: duplicate cell key "
                             f"{key!r} (its result would be dropped)")
        seen.add(key)
    if jobs is None:
        jobs = default_jobs()
    methods = multiprocessing.get_all_start_methods()
    if jobs > 1 and len(fns) > 1 and "fork" in methods:
        global _WORK
        previous, _WORK = _WORK, fns
        try:
            context = multiprocessing.get_context("fork")
            with context.Pool(min(jobs, len(fns))) as pool:
                outcomes = pool.map(_run_cell, range(len(fns)), chunksize=1)
        finally:
            _WORK = previous
    else:
        outcomes = [_attempt(fn) for fn in fns]

    # surface the first failure in *input* order (deterministic no matter
    # which worker hit it or when), naming the cell that died
    for key, result in zip(keys, outcomes):
        if isinstance(result, _CellFailure):
            raise GridCellError(name, key, result.error, result.traceback)
    return dict(zip(keys, outcomes))
