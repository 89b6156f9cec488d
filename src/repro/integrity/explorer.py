"""Systematic crash-point exploration with parallel fsck verification.

The paper's argument is that each ordering scheme keeps metadata
recoverable after a power failure at *any* instant.  The legacy
:class:`~repro.integrity.crash.CrashScheduler` samples a handful of
hand-picked instants; this engine instead *enumerates* the interesting
ones:

1. **Record** -- run the victim workload once on an instrumented machine
   (:func:`repro.harness.recording.record_run`) and collect every media
   write transfer window, through natural quiescence (the background write
   tail included).  The same run captures the **media write-log**
   (:mod:`repro.integrity.medialog`): every sector that actually reached
   the platters, with payload, LBN, and per-sector commit timing --
   torn-write prefixes and faulted/remapped outcomes included.
2. **Enumerate** -- every window contributes its start boundary (power
   fails before any sector lands), its completion boundary (the whole
   request is on the platters), and sampled mid-transfer instants (a
   sector *prefix* survives, per the drive's per-sector ECC semantics in
   ``crash_image``).  Every crash state any power failure could produce is
   one of these, or identical to one of these: between boundaries the
   platters do not change.
3. **Verify** -- for each crash point, *synthesize* the surviving image
   from the media log (base image + sectors committed before the crash
   instant + the ECC-consistent partial prefix of the in-flight window --
   no simulation at all), run ``fsck`` on the survivor, and classify the
   outcome against the declarative invariant set
   (:mod:`repro.integrity.invariants`) and the scheme's own
   :class:`~repro.ordering.guarantees.CrashGuarantees`.  Per-point cost is
   O(sector application + fsck) instead of O(full prefix replay).

The old per-point replay (fresh machine, ``engine.run_to(t)``,
:func:`~repro.integrity.crash.crash_image`) is kept as a **verification
oracle** behind ``--replay``: synthesized images are byte-identical to
replay-derived ones (``tests/integrity/test_synthesis_equivalence.py``),
and schemes whose crash state lives partly in memory (NVRAM's
battery-backed mirror) fall back to it automatically.

Verification fans out over a ``multiprocessing`` pool: workers inherit the
base image and the media log copy-on-write through the fork context (no
per-task pickling), and each worker receives a time-sorted chunk of crash
points so the image builds incrementally within the chunk.  Serial and
parallel sweeps produce identical findings.

CLI::

    python -m repro.integrity.explorer --scheme softupdates \
        --workload microbench --jobs 4 --monitor

``--monitor`` additionally attaches the online ordering-rule monitor
(:mod:`repro.integrity.monitor`) to the recording run, so breaches are
flagged at commit time as well as post-crash.

Exit status is 0 when every crash state falls within the scheme's declared
guarantees (for No Order that includes corruption -- it declares itself
unsafe) AND the monitor, when attached, saw no unexpected online
violations; 1 when a scheme broke its own declaration, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import random
import sys
import time
from dataclasses import dataclass
from typing import Generator, Optional

from repro.costs import CostModel
from repro.faults import PROFILES
from repro.fs.layout import FSGeometry
from repro.harness.parallel import Heartbeat
from repro.harness.parallel import heartbeat_interval as _env_heartbeat
from repro.harness.parallel import stall_timeout as _env_stall
from repro.harness.recording import RecordedRun, record_run
from repro.obs.observatory import append_ledger
from repro.integrity.crash import crash_image
from repro.integrity.findings import CrashFinding, ExplorationReport
from repro.integrity.fsck import fsck, repair
from repro.integrity.invariants import (
    Violation,
    classify_report,
    invariant_by_key,
    unexpected,
)
from repro.integrity.medialog import ImageSynthesizer, MediaLog
from repro.integrity.monitor import OrderingMonitor, monitor_supported
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


def _microbench(machine: Machine, seed: int, ops: int) -> Generator:
    return microbench_churn(machine, seed=seed, files=ops)


def _churn(machine: Machine, seed: int, ops: int) -> Generator:
    return churn_workload(machine, seed=seed, operations=ops)


def _remove(machine: Machine, seed: int, ops: int) -> Generator:
    return remove_churn(machine, seed=seed, files=ops)


def _reuse(machine: Machine, seed: int, ops: int) -> Generator:
    return reuse_churn(machine, seed=seed, files=ops)


#: name -> (generator factory, default ops)
WORKLOADS = {
    "microbench": (_microbench, 24),
    "churn": (_churn, 40),
    "remove": (_remove, 12),
    "reuse": (_reuse, 12),
}


def build_machine(scheme_name: str, secrets: bool = False,
                  fault_profile: Optional[str] = None,
                  fault_seed: int = 0) -> Machine:
    """A formatted exploration machine (deterministic for a given name).

    *fault_profile* names an entry of :data:`repro.faults.PROFILES`; the
    resulting plan is seeded with *fault_seed* so record and replay see the
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


def synthesis_supported(machine: Machine) -> bool:
    """True when the scheme's crash state lives entirely on the media.

    NVRAM keeps battery-backed survivors in memory
    (``scheme.apply_to_image``); a synthesized image cannot see them, so
    such schemes verify through the replay oracle.
    """
    return getattr(machine.scheme, "apply_to_image", None) is None


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
                   samples_per_write: int) -> list[tuple[float, str]]:
    """The full (unbudgeted) crash-point enumeration, in time order."""
    raw: list[tuple[float, str]] = []
    for wi, window in enumerate(recorded.windows):
        base = f"write {wi} (lbn {window.lbn}+{window.nsectors})"
        raw.append((window.transfer_start, f"{base} start"))
        if samples_per_write > 0 and window.nsectors > 1:
            span = window.nsectors
            cuts = sorted({
                max(1, min(span - 1,
                           round(j * span / (samples_per_write + 1))))
                for j in range(1, samples_per_write + 1)})
            for k in cuts:
                raw.append((window.transfer_start
                            + (k + 0.5) * window.sector_period,
                            f"{base} after {k}/{span} sectors"))
        raw.append((window.complete_time, f"{base} complete"))
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
    raw = _enumerate_raw(recorded, samples_per_write)
    if max_points is not None and len(raw) > max_points:
        rng = random.Random(sample_seed)
        keep = sorted(rng.sample(range(len(raw)), max_points))
        raw = [raw[i] for i in keep]
    return [CrashPoint(index, time, label)
            for index, (time, label) in enumerate(raw)]


# ----------------------------------------------------------------------
# per-point verification: the replay oracle (the pool worker)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Task:
    """Everything a worker needs to rebuild and verify one crash state."""

    scheme: str
    workload: str
    seed: int
    ops: Optional[int]
    secrets: bool
    verify_repair: bool
    index: int
    crash_time: float
    label: str
    fault_profile: Optional[str] = None
    fault_seed: int = 0


def _classify_image(image, geometry, secrets: bool, verify_repair: bool,
                    guarantees, index: int, crash_time: float,
                    label: str) -> CrashFinding:
    """fsck + invariant classification of one surviving image."""
    report = fsck(image, geometry)
    leaks = find_secret_leaks(image, geometry) if secrets else []
    violations = classify_report(report, leaks)
    if verify_repair and not any(v.is_corruption for v in violations):
        # the paper's recovery story: every error-free image must come out
        # of classic fsck repair fully consistent
        repaired = repair(image.snapshot(), geometry)
        residue = repaired.errors + repaired.warnings
        if residue:
            inv = invariant_by_key("unrepairable")
            violations.append(Violation(
                inv.key, inv.severity,
                f"repair left {len(residue)} findings: {residue[0]}"))
    return CrashFinding(
        index=index, crash_time=crash_time, label=label,
        errors=len(report.errors), warnings=len(report.warnings),
        violations=tuple(violations),
        unexpected=tuple(unexpected(violations, guarantees)))


def verify_crash_point(task: _Task) -> CrashFinding:
    """Replay to the crash instant, fsck the survivor, classify.

    The oracle path: a fresh machine re-simulates the workload prefix.
    The synthesis path (:func:`_verify_synth_chunk`) must produce findings
    equal to this, point for point.
    """
    machine = build_machine(task.scheme, secrets=task.secrets,
                            fault_profile=task.fault_profile,
                            fault_seed=task.fault_seed)
    workload = build_workload(machine, task.workload, task.seed, task.ops)
    process = machine.engine.process(workload, name="victim")
    machine.engine.run_to(task.crash_time, max_events=20_000_000)
    if process.triggered and not process.ok:
        raise process.value
    image = crash_image(machine)
    return _classify_image(image, machine.config.fs_geometry, task.secrets,
                           task.verify_repair, machine.scheme.crash_guarantees,
                           task.index, task.crash_time, task.label)


# ----------------------------------------------------------------------
# per-chunk verification: crash-image synthesis (the pool worker)
# ----------------------------------------------------------------------
@dataclass
class _SynthContext:
    """Shared read-only state for synthesis workers.

    Installed as a module-level global before the pool forks so children
    inherit the base image and media log copy-on-write; pickled once per
    worker (via the pool initializer) only on platforms without ``fork``.
    """

    base: object           # SectorStore
    log: MediaLog
    geometry: FSGeometry
    secrets: bool
    verify_repair: bool
    guarantees: object     # CrashGuarantees


_SYNTH_CONTEXT: Optional[_SynthContext] = None

#: the active chunk list + shared start stamps for the synthesis pool's
#: heartbeat monitor (fork-inherited like the context; both None when the
#: monitor is off or the platform cannot fork)
_SYNTH_CHUNKS: Optional[list] = None
_SYNTH_STARTS = None


def _synth_init(context: _SynthContext) -> None:
    global _SYNTH_CONTEXT
    _SYNTH_CONTEXT = context


def _verify_synth_chunk(chunk: list[CrashPoint]) -> list[CrashFinding]:
    """Synthesize and verify a time-sorted chunk of crash points.

    The synthesizer applies sectors incrementally: point *k+1* reuses the
    image built for point *k* and applies only the sectors committed in
    between, so a chunk of *m* points costs one base snapshot + one pass
    over the log + *m* fscks -- zero simulation.
    """
    ctx = _SYNTH_CONTEXT
    synthesizer = ImageSynthesizer(ctx.base, ctx.log)
    findings = []
    for point in chunk:
        image = synthesizer.image_at(point.time)
        findings.append(_classify_image(
            image, ctx.geometry, ctx.secrets, ctx.verify_repair,
            ctx.guarantees, point.index, point.time, point.label))
    return findings


def _verify_synth_chunk_indexed(index: int):
    """Pool task for the heartbeat path: stamp pickup, lead with index."""
    if _SYNTH_STARTS is not None:
        _SYNTH_STARTS[index] = time.time()
    return index, _verify_synth_chunk(_SYNTH_CHUNKS[index])


def _chunk_label(chunk: list) -> str:
    """A heartbeat/stall label naming a chunk's crash-point range."""
    if len(chunk) == 1:
        return f"point #{chunk[0].index} ({chunk[0].label})"
    return (f"points #{chunk[0].index}..#{chunk[-1].index} "
            f"(t={chunk[0].time:.4f}..{chunk[-1].time:.4f})")


def _chunk(points: list[CrashPoint], chunks: int) -> list[list[CrashPoint]]:
    """Split time-sorted points into at most *chunks* contiguous runs."""
    chunks = max(1, min(chunks, len(points)))
    size, extra = divmod(len(points), chunks)
    out, at = [], 0
    for i in range(chunks):
        step = size + (1 if i < extra else 0)
        out.append(points[at:at + step])
        at += step
    return out


# ----------------------------------------------------------------------
# the sweep
# ----------------------------------------------------------------------
def explore(scheme: str, workload: str = "microbench", seed: int = 0,
            ops: Optional[int] = None, jobs: int = 1,
            samples_per_write: int = 2, max_points: Optional[int] = 240,
            secrets: bool = False, verify_repair: bool = False,
            points: Optional[list[CrashPoint]] = None,
            fault_profile: Optional[str] = None,
            fault_seed: int = 0,
            synthesize: bool = True,
            monitor: bool = False,
            heartbeat: Optional[float] = None,
            stall_timeout: Optional[float] = None,
            on_heartbeat=None) -> ExplorationReport:
    """Record once, enumerate, verify every crash point; returns the report.

    ``synthesize=True`` (the default) materializes each crash image from
    the media write-log with zero post-recording simulation;
    ``synthesize=False`` replays every point from scratch (the equivalence
    oracle).  Schemes whose crash state lives partly in memory (NVRAM)
    fall back to replay automatically.  Either way, ``jobs > 1`` fans the
    verification out over a process pool and results are deterministic in
    (scheme, workload, seed, ops, samples_per_write, max_points) --
    independent of ``jobs`` and the verification mode.

    *fault_profile* adds the fault dimension: the victim runs against an
    unreliable disk (crash AND fault, then fsck).  Use a profile without
    latent defects (e.g. ``"transient"``) so the driver recovers every
    fault and the victim workload itself never aborts on EIO.

    ``monitor=True`` attaches the online :class:`OrderingMonitor` to the
    recording run; its violations land in the report (and fail
    ``report.exit_status``) without changing the simulation timeline.

    *heartbeat* / *stall_timeout* (seconds; ``None`` defers to
    ``REPRO_HEARTBEAT`` / ``REPRO_STALL_TIMEOUT``, 0 disables) attach a
    :class:`~repro.harness.parallel.Heartbeat` to the verification pool:
    periodic progress lines (via *on_heartbeat*, default stderr) and a
    :class:`~repro.harness.parallel.GridStallError` naming the wedged
    crash-point chunk instead of a silent hang.  Pure observers -- the
    findings are identical with or without them.
    """
    machine = build_machine(scheme, secrets=secrets,
                            fault_profile=fault_profile,
                            fault_seed=fault_seed)
    mode = "synthesize" if synthesize and synthesis_supported(machine) \
        else "replay"
    monitor_state = "off"
    watcher = None
    if monitor:
        if monitor_supported(machine):
            monitor_state = "online"
            watcher = OrderingMonitor(
                machine.config.fs_geometry,
                machine.scheme.crash_guarantees,
                registry=machine.obs.registry if machine.obs else None)
        else:
            monitor_state = "unsupported"
    record_start = time.perf_counter()
    recorded = record_run(machine,
                          build_workload(machine, workload, seed, ops),
                          capture_media=(mode == "synthesize"),
                          monitor=watcher)
    record_wall = time.perf_counter() - record_start
    enumerated = len(_enumerate_raw(recorded, samples_per_write))
    if points is None:
        points = enumerate_crash_points(recorded, samples_per_write,
                                        max_points, sample_seed=seed)
    pulse = Heartbeat(
        name=f"explore {scheme}/{workload} ({mode})", labels=[],
        interval=_env_heartbeat() if heartbeat is None else heartbeat,
        timeout=_env_stall() if stall_timeout is None else stall_timeout,
        emit=on_heartbeat)
    verify_start = time.perf_counter()
    if mode == "synthesize":
        findings = _explore_synthesized(machine, recorded, points, jobs,
                                        secrets, verify_repair,
                                        monitor=pulse)
        replays = 0
    else:
        findings = _explore_replayed(scheme, workload, seed, ops, secrets,
                                     verify_repair, points, jobs,
                                     fault_profile, fault_seed,
                                     monitor=pulse)
        replays = len(points)
    verify_wall = time.perf_counter() - verify_start
    return ExplorationReport(
        scheme=scheme, workload=workload, seed=seed,
        guarantees=machine.scheme.crash_guarantees, findings=findings,
        quiesce_time=recorded.quiesce_time,
        write_windows=len(recorded.windows),
        fault_profile=fault_profile, fault_seed=fault_seed,
        mode=mode, enumerated_points=enumerated,
        max_points=max_points, replays=replays, jobs=jobs,
        record_wall_seconds=record_wall, verify_wall_seconds=verify_wall,
        log_bytes=(recorded.media_log.payload_bytes
                   if recorded.media_log is not None else 0),
        sim_events=recorded.events_processed,
        monitor=monitor_state,
        monitor_windows=watcher.windows_seen if watcher else 0,
        monitor_violations=tuple(watcher.violations) if watcher else ())


def _explore_synthesized(machine: Machine, recorded: RecordedRun,
                         points: list[CrashPoint], jobs: int,
                         secrets: bool, verify_repair: bool,
                         monitor: Optional[Heartbeat] = None
                         ) -> list[CrashFinding]:
    """Verify *points* from the media log: zero simulation replays."""
    global _SYNTH_CONTEXT, _SYNTH_CHUNKS, _SYNTH_STARTS
    context = _SynthContext(
        base=recorded.base_image, log=recorded.media_log,
        geometry=machine.config.fs_geometry, secrets=secrets,
        verify_repair=verify_repair,
        guarantees=machine.scheme.crash_guarantees)
    ordered = sorted(points, key=lambda p: (p.time, p.index))
    if jobs > 1 and len(ordered) > 1:
        chunks = _chunk(ordered, jobs * 4)
        methods = multiprocessing.get_all_start_methods()
        monitored = monitor is not None and monitor.active \
            and "fork" in methods
        if monitored:
            monitor.labels = [_chunk_label(chunk) for chunk in chunks]
            starts = multiprocessing.Array("d", len(chunks), lock=False)
        else:
            starts = None
        previous = (_SYNTH_CONTEXT, _SYNTH_CHUNKS, _SYNTH_STARTS)
        _SYNTH_CONTEXT, _SYNTH_CHUNKS, _SYNTH_STARTS = \
            context, chunks, starts
        try:
            if "fork" in methods:
                # workers inherit base image + log by address space; only
                # point lists and findings cross the pipe
                pool_ctx = multiprocessing.get_context("fork")
                pool_kwargs = {}
            else:
                pool_ctx = multiprocessing.get_context(None)
                pool_kwargs = {"initializer": _synth_init,
                               "initargs": (context,)}
            with pool_ctx.Pool(min(jobs, len(chunks)),
                               **pool_kwargs) as pool:
                if monitored:
                    results_iter = monitor.drain(
                        pool.imap_unordered(_verify_synth_chunk_indexed,
                                            range(len(chunks)),
                                            chunksize=1), starts)
                    per_chunk = [chunk_findings for _index, chunk_findings
                                 in results_iter]
                else:
                    per_chunk = pool.map(_verify_synth_chunk, chunks,
                                         chunksize=1)
        finally:
            _SYNTH_CONTEXT, _SYNTH_CHUNKS, _SYNTH_STARTS = previous
        findings = [finding for chunk in per_chunk for finding in chunk]
    else:
        previous_ctx, _SYNTH_CONTEXT = _SYNTH_CONTEXT, context
        try:
            findings = _verify_synth_chunk(ordered)
        finally:
            _SYNTH_CONTEXT = previous_ctx
    findings.sort(key=lambda f: f.index)
    return findings


#: the active replay task list + shared start stamps (fork-inherited),
#: used only when a heartbeat monitor is attached
_REPLAY_TASKS: Optional[list] = None
_REPLAY_STARTS = None


def _verify_point_indexed(index: int):
    """Pool task for the heartbeat path: stamp pickup, lead with index."""
    if _REPLAY_STARTS is not None:
        _REPLAY_STARTS[index] = time.time()
    return index, verify_crash_point(_REPLAY_TASKS[index])


def _explore_replayed(scheme: str, workload: str, seed: int,
                      ops: Optional[int], secrets: bool, verify_repair: bool,
                      points: list[CrashPoint], jobs: int,
                      fault_profile: Optional[str],
                      fault_seed: int,
                      monitor: Optional[Heartbeat] = None
                      ) -> list[CrashFinding]:
    """The oracle: one full prefix replay per crash point."""
    global _REPLAY_TASKS, _REPLAY_STARTS
    tasks = [_Task(scheme, workload, seed, ops, secrets, verify_repair,
                   point.index, point.time, point.label,
                   fault_profile, fault_seed)
             for point in points]
    if jobs > 1 and len(tasks) > 1:
        methods = multiprocessing.get_all_start_methods()
        monitored = monitor is not None and monitor.active \
            and "fork" in methods
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else None)
        chunk = max(1, len(tasks) // (jobs * 4))
        if monitored:
            monitor.labels = [f"point #{task.index} ({task.label})"
                              for task in tasks]
            starts = multiprocessing.Array("d", len(tasks), lock=False)
            previous = (_REPLAY_TASKS, _REPLAY_STARTS)
            _REPLAY_TASKS, _REPLAY_STARTS = tasks, starts
            try:
                with context.Pool(jobs) as pool:
                    findings = [None] * len(tasks)
                    results_iter = monitor.drain(
                        pool.imap_unordered(_verify_point_indexed,
                                            range(len(tasks)),
                                            chunksize=chunk), starts)
                    for index, finding in results_iter:
                        findings[index] = finding
            finally:
                _REPLAY_TASKS, _REPLAY_STARTS = previous
        else:
            with context.Pool(jobs) as pool:
                findings = pool.map(verify_crash_point, tasks,
                                    chunksize=chunk)
    else:
        findings = [verify_crash_point(task) for task in tasks]
    return findings


def check_equivalence(scheme: str, workload: str = "microbench",
                      seed: int = 0, ops: Optional[int] = None,
                      jobs: int = 1, samples_per_write: int = 2,
                      max_points: Optional[int] = 240,
                      fault_profile: Optional[str] = None,
                      fault_seed: int = 0) -> tuple[bool, str]:
    """Run synthesis and replay over the same points; diff the findings.

    Returns ``(equal, summary)``.  The CI smoke uses this as a cheap
    end-to-end proof that the synthesized images stay byte-equivalent to
    the replay oracle's.
    """
    synth = explore(scheme, workload, seed=seed, ops=ops, jobs=jobs,
                    samples_per_write=samples_per_write,
                    max_points=max_points, fault_profile=fault_profile,
                    fault_seed=fault_seed, synthesize=True)
    replay = explore(scheme, workload, seed=seed, ops=ops, jobs=jobs,
                     samples_per_write=samples_per_write,
                     max_points=max_points, fault_profile=fault_profile,
                     fault_seed=fault_seed, synthesize=False)
    mismatches = [
        (s, r) for s, r in zip(synth.findings, replay.findings) if s != r]
    equal = (not mismatches
             and len(synth.findings) == len(replay.findings))
    lines = [f"equivalence {scheme} x {workload} (seed {seed}, "
             f"fault={fault_profile or 'none'}): "
             f"{synth.points} synthesized vs {replay.points} replayed "
             f"points, {len(mismatches)} mismatches",
             f"  synthesis: {synth.verify_wall_seconds:.2f}s verify "
             f"({synth.points_per_second:.0f} points/s, 0 replays)",
             f"  replay:    {replay.verify_wall_seconds:.2f}s verify "
             f"({replay.points_per_second:.0f} points/s, "
             f"{replay.replays} replays)"]
    for s, r in mismatches[:5]:
        lines.append(f"  MISMATCH point #{s.index} t={s.crash_time:.6f}: "
                     f"synth errors={s.errors} warnings={s.warnings} "
                     f"violations={len(s.violations)} | replay "
                     f"errors={r.errors} warnings={r.warnings} "
                     f"violations={len(r.violations)}")
    return equal, "\n".join(lines)


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
    parser.add_argument("--jobs", type=int,
                        default=max(1, min(4, os.cpu_count() or 1)),
                        help="verification pool size (default: up to 4)")
    parser.add_argument("--monitor", action="store_true",
                        help="attach the online ordering-rule monitor to "
                             "the recording run; unexpected online "
                             "violations fail the sweep")
    parser.add_argument("--heartbeat", type=float, default=None,
                        metavar="SECONDS",
                        help="progress line every SECONDS during "
                             "verification (default REPRO_HEARTBEAT; "
                             "0 = off)")
    parser.add_argument("--stall-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="abort, naming the wedged crash-point chunk, "
                             "once any pool task is in flight this long "
                             "(default REPRO_STALL_TIMEOUT; 0 = off)")
    parser.add_argument("--samples-per-write", type=int, default=2,
                        help="mid-transfer partial-prefix points per write")
    parser.add_argument("--max-points", type=int, default=240,
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
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--synthesize", dest="synthesize",
                      action="store_true", default=True,
                      help="synthesize crash images from the media "
                           "write-log (the default: zero replays)")
    mode.add_argument("--replay", dest="synthesize", action="store_false",
                      help="replay every crash point from scratch "
                           "(the slow verification oracle)")
    parser.add_argument("--check-equivalence", action="store_true",
                        help="run BOTH modes and fail unless their "
                             "findings are identical")
    parser.add_argument("--json", action="store_true",
                        help="emit the machine-readable report")
    return parser.parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    max_points = None if args.max_points == 0 else args.max_points
    if args.check_equivalence:
        equal, summary = check_equivalence(
            args.scheme, args.workload, seed=args.seed, ops=args.ops,
            jobs=args.jobs, samples_per_write=args.samples_per_write,
            max_points=max_points, fault_profile=args.fault_profile,
            fault_seed=args.fault_seed)
        print(summary)
        print("PASS: synthesis == replay" if equal
              else "FAIL: synthesis diverged from the replay oracle")
        return 0 if equal else 1
    points = None
    if args.point is not None:
        machine = build_machine(args.scheme, secrets=args.secrets,
                                fault_profile=args.fault_profile,
                                fault_seed=args.fault_seed)
        recorded = record_run(
            machine, build_workload(machine, args.workload, args.seed,
                                    args.ops))
        enumerated = enumerate_crash_points(recorded,
                                            args.samples_per_write,
                                            max_points,
                                            sample_seed=args.seed)
        matches = [p for p in enumerated if p.index == args.point]
        if not matches:
            print(f"no crash point with index {args.point} "
                  f"(enumerated {len(enumerated)})", file=sys.stderr)
            return 2
        points = matches
    report = explore(args.scheme, args.workload, seed=args.seed,
                     ops=args.ops, jobs=args.jobs,
                     samples_per_write=args.samples_per_write,
                     max_points=max_points, secrets=args.secrets,
                     verify_repair=args.verify_repair, points=points,
                     fault_profile=args.fault_profile,
                     fault_seed=args.fault_seed,
                     synthesize=args.synthesize,
                     monitor=args.monitor,
                     heartbeat=args.heartbeat,
                     stall_timeout=args.stall_timeout)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.format())
    append_ledger("explore", {
        "scheme": args.scheme,
        "workload": args.workload,
        "seed": args.seed,
        "mode": report.mode,
        "jobs": args.jobs,
        "points": report.points,
        "enumerated": report.enumerated_points,
        "unexpected": len(report.unexpected_findings),
        "record_wall_seconds": round(report.record_wall_seconds, 3),
        "verify_wall_seconds": round(report.verify_wall_seconds, 3),
        "points_per_second": round(report.points_per_second, 1),
        "sim_events": report.sim_events,
        "exit_status": report.exit_status,
    })
    return report.exit_status


if __name__ == "__main__":
    raise SystemExit(main(argv=None))
