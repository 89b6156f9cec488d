"""Seeded fault-sweep harness: every scheme on an unreliable disk.

The acceptance bar for the fault-injection subsystem is *graceful
degradation*: with a seeded :class:`~repro.faults.FaultPlan` attached,
every ordering scheme must either recover to an fsck-clean image (the
driver's retry/remap machinery absorbed the faults) or surface a *typed*
degradation event (EIO to a syscall, a lost delayed write, a requeued
dependency batch, a wedged sync).  What is never acceptable is silent
corruption: an image that fails ``fsck`` with no degradation on record.

This runner sweeps a small matrix of (scheme x fault profile x seed)
cells.  Each cell builds the exploration testbed
(:func:`repro.integrity.explorer.build_machine`), runs the seeded churn
workload, settles, fscks the surviving image and classifies the outcome:

* ``clean``      -- fsck clean, no visible degradation (faults absorbed);
* ``recovered``  -- fsck clean after visible-but-handled degradation
  (requeues, redirties, failed ops that were reported to the caller);
* ``degraded``   -- fsck found damage, but every bit of it is accounted
  for by typed degradation events (lost writes, EIOs);
* ``SILENT-CORRUPTION`` -- fsck found damage with *no* typed degradation
  on record.  This is the bug class the sweep exists to catch, and the
  only verdict that makes the run exit nonzero.

Everything is deterministic in the seeds: the same invocation produces a
byte-identical ``results/fault_report.txt``.

CLI::

    python -m repro.harness faults --profiles transient,mixed --seeds 1,2
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass, field

from repro.faults import MediaError, PROFILES
from repro.harness.parallel import run_grid
from repro.harness.recording import recording
from repro.integrity.explorer import SCHEMES, build_machine
from repro.integrity.fsck import fsck
from repro.integrity.monitor import monitor_violations
from repro.ordering.registry import standard_slugs
from repro.sim import ProcessCrashed, SimulationError
from repro.workloads.churn import churn_workload

#: the standard registry schemes -- the five paper configurations plus
#: journaling (nvram rides along via --schemes: it is a scheme too)
DEFAULT_SCHEMES = standard_slugs()
DEFAULT_PROFILES = ["transient", "defects", "mixed"]
DEFAULT_SEEDS = [1, 2, 3]
#: bounded attempts to settle a machine whose sync keeps hitting faults
SETTLE_ATTEMPTS = 5
#: event budget of the victim run and of each settle attempt, a
#: recording's (the largest default cell processes under 2 000 events): a
#: cell that wedges while the syncer keeps the event heap busy is logged
#: ``wedged`` instead of hanging the sweep
MAX_EVENTS = 20_000_000


@dataclass
class CellResult:
    """Outcome of one (scheme, profile, seed) cell."""

    scheme: str
    profile: str
    seed: int
    verdict: str = "clean"
    injected: int = 0
    retries: int = 0
    remaps: int = 0
    io_errors: int = 0
    lost_writes: int = 0
    fsck_errors: int = 0
    fsck_warnings: int = 0
    degradations: list[str] = field(default_factory=list)
    #: ordering monitor (``--monitor``): whether it judged the cell's
    #: recorded run, and what it found
    monitored: bool = False
    monitor_violations: int = 0
    monitor_unexpected: int = 0


def run_cell(scheme_name: str, profile: str, seed: int,
             operations: int, monitor: bool = False) -> CellResult:
    """Run one cell of the sweep and classify the survivor.

    The whole cell runs under :func:`~repro.harness.recording.recording`;
    ``monitor=True`` runs the ordering-rule monitor over that record:
    unexpected violations count as damage, classified exactly like fsck
    damage (accounted-for -> ``degraded``, unaccounted-for ->
    ``SILENT-CORRUPTION``).
    """
    machine = build_machine(scheme_name, fault_profile=profile,
                            fault_seed=seed)
    result = CellResult(scheme=scheme_name, profile=profile, seed=seed)
    with recording(machine) as recorded:
        _run_and_settle(machine, operations, seed)
    if monitor:
        violations = monitor_violations(recorded,
                                        machine.config.fs_geometry,
                                        machine.scheme.crash_guarantees)
        result.monitored = True
        result.monitor_violations = len(violations)
        result.monitor_unexpected = sum(not v.expected for v in violations)

    injector = machine.disk.faults
    report = fsck(machine.disk.storage, machine.config.fs_geometry)
    degradations = injector.degradations()

    result.injected = injector.injected
    result.retries = machine.driver.retries
    result.remaps = machine.driver.remaps
    result.io_errors = machine.driver.io_errors
    result.lost_writes = len(machine.cache.lost_writes)
    result.fsck_errors = len(report.errors)
    result.fsck_warnings = len(report.warnings)
    result.degradations = [
        f"t={event.time:.4f} {event.kind}: {event.detail}"
        for event in degradations]

    damaged = not report.clean or result.monitor_unexpected > 0
    if not damaged:
        result.verdict = "recovered" if degradations else "clean"
    elif degradations:
        result.verdict = "degraded"
    else:
        result.verdict = "SILENT-CORRUPTION"
    return result


def _run_and_settle(machine, operations: int, seed: int) -> None:
    """The seeded churn victim, then a bounded settle; every failure on
    the way is logged as a typed degradation, never raised."""
    injector = machine.disk.faults
    victim = machine.spawn(
        churn_workload(machine, seed=seed, operations=operations),
        name="victim")
    try:
        machine.engine.run_until(victim, max_events=MAX_EVENTS)
    except ProcessCrashed as exc:
        if isinstance(exc.original, MediaError):
            # the syscall path surfaced EIO/nospare to the caller: a typed,
            # expected degradation (the workload stops, the image must
            # still audit consistently with what was reported)
            injector.log(machine.engine.now, "op_failed", str(exc.original))
        else:
            injector.log(machine.engine.now, "wedged", f"victim: {exc}")
    except MediaError as exc:
        injector.log(machine.engine.now, "op_failed", str(exc))
    except (RuntimeError, SimulationError) as exc:
        injector.log(machine.engine.now, "wedged", f"victim: {exc}")

    for _ in range(SETTLE_ATTEMPTS):
        try:
            machine.sync_and_settle(max_events=MAX_EVENTS)
            break
        except ProcessCrashed as exc:
            if isinstance(exc.original, MediaError):
                injector.log(machine.engine.now, "sync_write_failed",
                             str(exc.original))
            else:
                injector.log(machine.engine.now, "wedged", f"sync: {exc}")
                break
        except MediaError as exc:
            injector.log(machine.engine.now, "sync_write_failed", str(exc))
        except (RuntimeError, SimulationError) as exc:
            injector.log(machine.engine.now, "wedged", f"sync: {exc}")
            break
    else:
        injector.log(machine.engine.now, "wedged",
                     f"sync still failing after {SETTLE_ATTEMPTS} attempts")


def format_report(cells: list[CellResult], operations: int) -> str:
    """Render the sweep outcome as a deterministic text report."""
    lines = ["fault sweep report",
             "==================",
             f"workload: churn x {operations} operations per cell",
             f"cells: {len(cells)}",
             ""]
    monitored = any(cell.monitored for cell in cells)
    header = (f"{'scheme':<14}{'profile':<11}{'seed':>5}{'inj':>6}"
              f"{'retry':>7}{'remap':>7}{'eio':>5}{'lost':>6}"
              f"{'fsck':>6}")
    if monitored:
        header += f"{'mon':>6}"
    header += "  verdict"
    lines.append(header)
    lines.append("-" * len(header))
    for cell in cells:
        row = (f"{cell.scheme:<14}{cell.profile:<11}{cell.seed:>5}"
               f"{cell.injected:>6}{cell.retries:>7}{cell.remaps:>7}"
               f"{cell.io_errors:>5}{cell.lost_writes:>6}"
               f"{cell.fsck_errors:>6}")
        if monitored:
            row += f"{cell.monitor_violations:>6}"
        row += f"  {cell.verdict}"
        lines.append(row)
    lines.append("")
    for cell in cells:
        if not cell.degradations:
            continue
        lines.append(f"[{cell.scheme}/{cell.profile}/seed={cell.seed}] "
                     f"{cell.verdict}:")
        for entry in cell.degradations:
            lines.append(f"  {entry}")
        lines.append("")
    bad = [cell for cell in cells if cell.verdict == "SILENT-CORRUPTION"]
    lines.append(f"silent corruption: {len(bad)}")
    if monitored:
        lines.append(f"online ordering violations outside declarations: "
                     f"{sum(cell.monitor_unexpected for cell in cells)}")
    return "\n".join(lines) + "\n"


def _listed(parser: argparse.ArgumentParser, what: str, text: str,
            choices=None) -> list:
    """The values of a comma-separated option: names from *choices*, or
    integers when there are none.  A malformed, unknown or repeated value
    is a usage error naming it (a traceback would exit 1, the status that
    means silent corruption)."""
    values = []
    for item in (part.strip() for part in text.split(",")):
        if not item:
            continue
        if choices is None:
            try:
                item = int(item)
            except ValueError:
                parser.error(f"{what} {item!r} is not an integer")
        elif item not in choices:
            parser.error(f"unknown {what} {item!r}; choose from "
                         f"{sorted(choices)}")
        if item in values:
            parser.error(f"{what} {item!r} is given twice")
        values.append(item)
    return values


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness faults",
        description="seeded disk-fault sweep across ordering schemes")
    parser.add_argument("--schemes", default=",".join(DEFAULT_SCHEMES),
                        help="comma-separated scheme names "
                             f"(from {sorted(SCHEMES)})")
    parser.add_argument("--profiles", default=",".join(DEFAULT_PROFILES),
                        help="comma-separated fault profiles "
                             f"(from {sorted(PROFILES)})")
    parser.add_argument("--seeds", default=",".join(
        str(seed) for seed in DEFAULT_SEEDS),
        help="comma-separated fault/workload seeds")
    parser.add_argument("--ops", type=int, default=40,
                        help="churn operations per cell (default 40)")
    parser.add_argument("--monitor", action="store_true",
                        help="run the ordering-rule monitor over every "
                             "cell's recorded run (unexpected violations "
                             "count as damage)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="sweep cells in parallel over a fork pool "
                             "(default REPRO_JOBS, then the core count)")
    parser.add_argument("--out", default=os.path.join(
        "results", "fault_report.txt"),
        help="report path (default results/fault_report.txt)")
    args = parser.parse_args(argv)
    if args.ops < 0:
        parser.error("--ops must not be negative")

    schemes = _listed(parser, "scheme", args.schemes, SCHEMES)
    profiles = _listed(parser, "profile", args.profiles, PROFILES)
    seeds = _listed(parser, "seed", args.seeds)

    # every (scheme, profile, seed) cell is independent -- fan them over
    # the same fork-pool grid as the benchmark tables.  Results come back
    # keyed in input order, so the printed lines and the report are
    # byte-identical to a serial loop's.
    grid_cells = [
        ((scheme_name, profile, seed),
         functools.partial(run_cell, scheme_name, profile, seed, args.ops,
                           monitor=args.monitor))
        for scheme_name in schemes
        for profile in profiles
        for seed in seeds]
    results = run_grid("faults", grid_cells, jobs=args.jobs)
    cells = list(results.values())
    for cell in cells:
        extra = ""
        if cell.monitored:
            extra += (f" monitor={cell.monitor_violations}"
                      f"/{cell.monitor_unexpected}-unexpected")
        print(f"{cell.scheme}/{cell.profile}/seed={cell.seed}: "
              f"{cell.verdict} (injected={cell.injected} "
              f"retries={cell.retries} remaps={cell.remaps})"
              f"{extra}")

    report = format_report(cells, args.ops)
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as handle:
        handle.write(report)
    print(f"\nwrote {args.out}")

    failed = False
    for cell in cells:
        if cell.verdict == "SILENT-CORRUPTION":
            print(f"SILENT CORRUPTION: {cell.scheme}/{cell.profile}/"
                  f"seed={cell.seed}", file=sys.stderr)
            failed = True
        if cell.monitor_unexpected and not cell.degradations:
            print(f"ONLINE ORDERING BREACH: {cell.scheme}/{cell.profile}/"
                  f"seed={cell.seed}: {cell.monitor_unexpected} "
                  f"unexpected violations at commit time",
                  file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main(sys.argv[1:]))
