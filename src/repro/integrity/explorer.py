"""Systematic crash-point exploration with fsck verification.

The paper's argument is that each ordering scheme keeps metadata
recoverable after a power failure at *any* instant.  Rather than sample a
handful of hand-picked instants, this engine *enumerates* the interesting
ones:

1. **Record** -- run the victim workload once on an instrumented machine
   (:func:`repro.harness.recording.record_run`) and keep the drive's record
   of every media write transfer in the **media write-log**
   (:mod:`repro.integrity.medialog`), through natural quiescence (the
   background write tail included): payload, LBN, per-sector timing, and
   what actually persisted -- torn-write prefixes and faulted/remapped
   outcomes included.  Steps 2 and 3 read that one list.
2. **Enumerate** -- every window contributes its start boundary (power
   fails before any sector lands), its completion boundary (the whole
   request is on the platters), and sampled mid-transfer instants (a
   sector *prefix* survives, per the drive's per-sector ECC semantics,
   ``InFlightWrite.sectors_applied_by``).  Every crash state any power
   failure could produce is one of these, or identical to one of these:
   between boundaries the platters do not change.
3. **Verify** -- for each crash point, in time order, *synthesize* the
   surviving image from the media log (base image + sectors committed
   before the crash instant + the ECC-consistent partial prefix of the
   in-flight window + the off-media survivors, said once in the scheme's
   ``on_survivor`` stream -- no simulation at all), run ``fsck`` on the
   survivor, and classify the outcome against the declarative invariant set
   (:mod:`repro.integrity.invariants`) and the scheme's own
   :class:`~repro.ordering.guarantees.CrashGuarantees`.  Per-point cost
   is O(sector application + fsck); both are incremental (:func:`_verify`).

That is the only way a crash image is made, for every scheme.  The
per-point re-simulation it replaced (fresh machine, ``engine.run_to(t)``,
the live machine's image) lives on as the test oracle in
``tests/integrity/replay_oracle.py``: synthesized images are byte-identical
to its images and the findings equal, point for point
(``tests/integrity/test_synthesis_equivalence.py``).

CLI::

    python -m repro.integrity.explorer --scheme softupdates \
        --workload microbench --monitor

``--monitor`` adds every durable commit to step 3's walk, judged by the
ordering-rule monitor (:mod:`repro.integrity.monitor`), so breaches are
flagged at the commit that caused them as well as post-crash.

Exit status is 0 when every crash state falls within the scheme's declared
guarantees (for No Order that includes corruption -- it declares itself
unsafe) AND the monitor, when asked for, saw no unexpected violations;
1 when a scheme broke its own declaration, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from typing import Generator, Optional

from repro.costs import CostModel
from repro.faults import PROFILES
from repro.fs.layout import FSGeometry
from repro.harness.recording import RecordedRun, record_run
from repro.integrity.findings import (
    MAX_POINTS,
    SAMPLES_PER_WRITE,
    CrashFinding,
    ExplorationReport,
)
from repro.integrity.fsck import Auditor, repair
from repro.integrity.invariants import finding, unexpected
from repro.integrity.medialog import audited_images
from repro.integrity.monitor import commits, judge_commits
from repro.integrity.secrets import find_secret_leaks, plant_secrets
from repro.machine import Machine, MachineConfig
from repro.ordering.registry import scheme_classes
from repro.ordering.shims import SHIMS
from repro.workloads.churn import churn_workload, microbench_churn, \
    remove_churn, reuse_churn

#: the exploration testbed: 2 cylinder groups, 256 inodes each, 2 MB data
#: each -- small enough that a full sweep fscks hundreds of images fast
EXPLORER_GEOMETRY = FSGeometry(ipg=256, dfrags_per_cg=2048, ncg=2)

#: slug -> class, straight from the single scheme registry
SCHEMES = scheme_classes()
# the rule-breaking mutation shims ride along so breaches are
# reproducible from the CLI (and the mutation tests can sweep them)
SCHEMES.update({name: cls for name, (cls, _rule) in SHIMS.items()})


#: name -> (generator factory ``(machine, seed, ops)``, default ops)
WORKLOADS = {
    "microbench": (microbench_churn, 24),
    "churn": (churn_workload, 40),
    "remove": (remove_churn, 12),
    "reuse": (reuse_churn, 12),
}


def build_machine(scheme_name: str, secrets: bool = False,
                  fault_profile: Optional[str] = None,
                  fault_seed: int = 0) -> Machine:
    """A formatted exploration machine (deterministic for a given name).

    *fault_profile* names an entry of :data:`repro.faults.PROFILES`; the
    resulting plan is seeded with *fault_seed* so every build sees the
    identical fault sequence.
    """
    try:
        # only the lookup belongs in the try: a scheme constructor that
        # happens to raise KeyError must not masquerade as "unknown scheme"
        scheme_cls = SCHEMES[scheme_name]
    except KeyError:
        raise ValueError(f"unknown scheme {scheme_name!r}; "
                         f"choose from {sorted(SCHEMES)}") from None
    scheme = scheme_cls()
    faults = None
    if fault_profile is not None:
        try:
            faults = PROFILES[fault_profile](fault_seed)
        except KeyError:
            raise ValueError(f"unknown fault profile {fault_profile!r}; "
                             f"choose from {sorted(PROFILES)}") from None
    config = MachineConfig(scheme=scheme,
                           fs_geometry=EXPLORER_GEOMETRY,
                           cache_bytes=2 * 1024 * 1024,
                           costs=CostModel(scale=0.0),
                           faults=faults)
    machine = Machine(config)
    machine.format()
    if secrets:
        plant_secrets(machine.disk.storage, EXPLORER_GEOMETRY)
        machine.drop_caches()
    return machine


def build_workload(machine: Machine, workload_name: str, seed: int,
                   ops: Optional[int]) -> Generator:
    try:
        factory, default_ops = WORKLOADS[workload_name]
    except KeyError:
        raise ValueError(f"unknown workload {workload_name!r}; "
                         f"choose from {sorted(WORKLOADS)}") from None
    return factory(machine, seed, ops if ops is not None else default_ops)


# ----------------------------------------------------------------------
# crash-point enumeration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CrashPoint:
    """One instant worth pulling the plug at."""

    index: int
    time: float
    label: str


def _enumerate_raw(recorded: RecordedRun,
                   samples_per_write: int) -> list[tuple]:
    """The full (unbudgeted) crash-point enumeration, window by window, in
    time order, as ``(time, window index, window, cut)``: the cut is
    ``"start"``, ``"complete"`` or the sectors applied.  A write's
    ``complete`` point is the ``end`` the drive stamped, before the
    nominal ``complete_time`` when a fault cut the transfer short; its
    mid-transfer cuts are the ones the transfer reached by then, so every
    point lies in ``[transfer_start, end]``."""
    raw: list[tuple] = []
    for wi, window in enumerate(recorded.windows):
        raw.append((window.transfer_start, wi, window, "start"))
        if samples_per_write > 0 and window.nsectors > 1:
            span = window.nsectors
            cuts = sorted({
                max(1, min(span - 1,
                           round(j * span / (samples_per_write + 1))))
                for j in range(1, samples_per_write + 1)})
            for k in cuts:
                when = window.transfer_start + (k + 0.5) * window.sector_period
                if when <= window.end:
                    raw.append((when, wi, window, k))
        raw.append((window.end, wi, window, "complete"))
    return raw


def enumerate_crash_points(recorded: RecordedRun,
                           samples_per_write: int = 2,
                           max_points: Optional[int] = None,
                           sample_seed: int = 0) -> list[CrashPoint]:
    """Every write's start/completion boundary + sampled partial prefixes.

    A window of ``n`` sectors has ``n - 1`` distinct mid-transfer states
    (``k`` sectors applied, ``0 < k < n``); ``samples_per_write`` of them
    are taken at evenly spaced ``k`` (all of them when the window is small
    enough).  When the full enumeration exceeds *max_points*, a
    deterministic sample (seeded by *sample_seed*) is kept -- the budget is
    explicit, never a silent truncation of the tail, and the sweep report
    states enumerated vs verified counts.
    """
    return _budget(_enumerate_raw(recorded, samples_per_write), max_points,
                   sample_seed)


def _budget(raw: list[tuple], max_points: Optional[int],
            sample_seed: int) -> list[CrashPoint]:
    """The crash points of the full enumeration *raw* that a budget of
    *max_points* keeps (:func:`enumerate_crash_points`), each labelled."""
    if max_points is not None and len(raw) > max_points:
        rng = random.Random(sample_seed)
        keep = sorted(rng.sample(range(len(raw)), max_points))
        raw = [raw[i] for i in keep]
    return [CrashPoint(index, time, f"write {wi} (lbn {w.lbn}+{w.nsectors}) "
                       + (cut if type(cut) is str
                          else f"after {cut}/{w.nsectors} sectors"))
            for index, (time, wi, w, cut) in enumerate(raw)]


# ----------------------------------------------------------------------
# verification: synthesize, fsck, classify
# ----------------------------------------------------------------------
def classify_image(image, report, geometry: FSGeometry, secrets: bool,
                   repairs: Optional[Auditor], guarantees,
                   point: CrashPoint) -> CrashFinding:
    """Invariant classification of *point*'s surviving image from its fsck
    *report*; with *repairs*, every image without corruption must also
    repair to a state that auditor finds consistent.

    The audit's verdict is derived once per report: an image the auditor
    finds unchanged gets the previous report back, and with it the
    previous verdict.  The stale-data walk and the repair check read
    bytes the audit did not, so they run for every image.
    """
    verdict = report.verdict(guarantees)
    violations, outside = verdict.violations, verdict.unexpected
    if secrets:
        leaks = find_secret_leaks(image, geometry, report)
        violations += tuple(leaks)
        outside += tuple(unexpected(leaks, guarantees))
    if repairs is not None and not verdict.errors:
        # the paper's recovery story: every error-free image must come out
        # of classic fsck repair fully consistent
        residue = repair(image.snapshot(), report, geometry, repairs).verdict(
            guarantees).violations
        if residue:
            broken = finding("unrepairable",
                             f"repair left {len(residue)} findings: "
                             f"{residue[0].message}")
            violations += (broken,)
            outside += tuple(unexpected([broken], guarantees))
    return CrashFinding(
        index=point.index, crash_time=point.time, label=point.label,
        errors=verdict.errors, warnings=verdict.warnings,
        violations=violations, unexpected=outside)


def _verify(base, log, geometry, secrets: bool, verify_repair: bool,
            guarantees, points: list[CrashPoint], instants
            ) -> tuple[list[CrashFinding], list]:
    """Verify *points* (index order is time order) and judge the monitor's
    *instants* (:func:`~repro.integrity.monitor.commits`, or none) in one
    walk of the log (:func:`~repro.integrity.medialog.audited_images`):
    the findings and the ordering violations.  An instant's audit decodes
    only the records the writes since the previous instant changed (the
    repaired images go through a second ``Auditor``): zero simulation.
    """
    auditor = Auditor(geometry)
    repairs = Auditor(geometry) if verify_repair else None
    findings = []

    def commit_states():  # the walk; crash points are classified on the way
        for tag, image, report in audited_images(
                base, log, auditor, ((p.time, p) for p in points), instants):
            if isinstance(tag, CrashPoint):
                findings.append(classify_image(image, report, geometry,
                                               secrets, repairs, guarantees,
                                               tag))
            else:
                yield tag, image, report

    violations = judge_commits(commit_states(), geometry, guarantees)
    return findings, violations


# ----------------------------------------------------------------------
# the sweep
# ----------------------------------------------------------------------
def explore(scheme: str, workload: str = "microbench", seed: int = 0,
            ops: Optional[int] = None, jobs: int = 1,
            samples_per_write: int = SAMPLES_PER_WRITE,
            max_points: Optional[int] = MAX_POINTS, secrets: bool = False, verify_repair: bool = False,
            point: Optional[int] = None,
            fault_profile: Optional[str] = None,
            fault_seed: int = 0,
            monitor: bool = False) -> ExplorationReport:
    """Record once, enumerate, verify every crash point; returns the report.

    Each crash image is materialized from the media write-log with zero
    post-recording simulation; results are deterministic in (scheme,
    workload, seed, ops, samples_per_write, max_points).

    *jobs* is vestigial: a sweep verifies in one process whatever it says.
    It stays because ``bench/workloads.py`` passes it.

    *point* verifies only the crash point with that index of the same
    enumeration (how a report's ``reproduce:`` line re-runs one finding);
    an index the enumeration does not contain is a ``ValueError``.

    *fault_profile* adds the fault dimension: the victim runs against an
    unreliable disk (crash AND fault, then fsck).  Use a profile without
    latent defects (e.g. ``"transient"``) so the driver recovers every
    fault and the victim workload itself never aborts on EIO.

    ``monitor=True`` also judges every durable commit in the same walk, as
    :func:`~repro.integrity.monitor.monitor_violations` does; its
    violations land in the report (and fail ``report.exit_status``).
    """
    machine = build_machine(scheme, secrets=secrets,
                            fault_profile=fault_profile,
                            fault_seed=fault_seed)
    recorded = record_run(machine,
                          build_workload(machine, workload, seed, ops))
    geometry, guarantees = (machine.config.fs_geometry,
                            machine.scheme.crash_guarantees)
    del machine  # the walk needs only those two: free the rest first
    raw = _enumerate_raw(recorded, samples_per_write)
    points = _budget(raw, max_points, sample_seed=seed)
    if point is not None:
        budgeted = len(points)
        points = [p for p in points if p.index == point]
        if not points:
            raise ValueError(f"no crash point with index {point} "
                             f"({len(raw)} enumerated, "
                             f"{budgeted} in the budget)")
    findings, ordering_violations = _verify(
        recorded.base_image, recorded.media_log, geometry,
        secrets, verify_repair, guarantees, points,
        commits(recorded) if monitor else ())
    return ExplorationReport(
        scheme=scheme, workload=workload, seed=seed,
        guarantees=guarantees, findings=findings,
        quiesce_time=recorded.quiesce_time,
        write_windows=len(recorded.windows),
        fault_profile=fault_profile, fault_seed=fault_seed,
        enumerated_points=len(raw),
        ops=ops, samples_per_write=samples_per_write,
        max_points=max_points,
        log_bytes=recorded.media_log.payload_bytes,
        sim_events=recorded.events_processed,
        monitor="online" if monitor else "off",
        monitor_windows=len(recorded.windows) if monitor else 0,
        monitor_violations=tuple(ordering_violations))


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.integrity.explorer",
        description="Sweep every disk-write crash boundary of a workload "
                    "and fsck each surviving image.")
    parser.add_argument("--scheme", required=True, choices=sorted(SCHEMES))
    parser.add_argument("--workload", default="microbench",
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload RNG seed (findings name it)")
    parser.add_argument("--ops", type=int, default=None,
                        help="workload size (files/operations; "
                             "per-workload default)")
    parser.add_argument("--monitor", action="store_true",
                        help="also run the ordering-rule monitor over "
                             "the recording; unexpected violations fail "
                             "the sweep")
    parser.add_argument("--samples-per-write", type=int,
                        default=SAMPLES_PER_WRITE,
                        help="mid-transfer partial-prefix points per write")
    parser.add_argument("--max-points", type=int, default=MAX_POINTS,
                        help="crash-point budget (0 = unlimited)")
    parser.add_argument("--point", type=int, default=None,
                        help="verify only this crash-point index "
                             "(reproduce a reported finding)")
    parser.add_argument("--secrets", action="store_true",
                        help="plant deleted-data markers and check the "
                             "allocation-initialization security hole")
    parser.add_argument("--verify-repair", action="store_true",
                        help="also require every error-free image to "
                             "repair to a fully consistent state")
    parser.add_argument("--fault-profile", default=None,
                        choices=sorted(PROFILES),
                        help="run the victim against an unreliable disk "
                             "(crash AND fault, then fsck); prefer a "
                             "profile without latent defects")
    parser.add_argument("--fault-seed", type=int, default=0,
                        help="fault-injection RNG seed")
    parser.add_argument("--json", action="store_true",
                        help="emit the machine-readable report")
    args = parser.parse_args(argv)
    for flag in ("ops", "max_points", "samples_per_write"):
        if (getattr(args, flag) or 0) < 0:
            parser.error(f"--{flag.replace('_', '-')} must not be negative")
    return args


def main(argv: Optional[list[str]] = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    max_points = None if args.max_points == 0 else args.max_points
    try:
        report = explore(args.scheme, args.workload, seed=args.seed,
                         ops=args.ops,
                         samples_per_write=args.samples_per_write,
                         max_points=max_points, secrets=args.secrets,
                         verify_repair=args.verify_repair, point=args.point,
                         fault_profile=args.fault_profile,
                         fault_seed=args.fault_seed,
                         monitor=args.monitor)
    except ValueError as exc:
        if args.point is None:
            raise
        print(exc, file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.format())
    return report.exit_status


if __name__ == "__main__":
    raise SystemExit(main(argv=None))
