"""The four fixed workloads, driven phase by phase through public functions.

Each workload is a list of *cells* -- one (scheme, mode) simulation or one
crash sweep.  A cell exposes the phases the benchmark times separately:

``setup(span)``
    machine build, mkfs/mount and instant-mode populate (``setup_s``);
``measure(state, span)``
    users spawned -> users done -> ``sync_and_settle`` -> ``collect``, or
    for a sweep the whole ``explore()`` call (``cpu_ref_s``);
``outcome(state, raw)``
    untimed: the simulated fields, layer counters and failures of the run;
``verify(state)``
    untimed, first round only: fsck of the settled image;
``reference_mismatch(outcome)``
    untimed, traced runs only: the same cell through the shipped runner
    (simulating cells; a sweep's ``measure`` *is* the shipped ``explore()``);
``measure_traced`` / ``outcome_traced``
    sweeps only: the span round's per-point loop, built from public pieces.

Why these four: ``copy4`` is data-heavy (``sim``, ``driver``, ``fs.vfs``,
``cache`` carry it), ``remove4`` drives the same layers the other way round
(deletes, held-back driver queues, deferred soft-updates work), ``dirops``
is dominated by ``fs.directory`` and mostly bypasses the ``sim`` core, and
``crash_sweep`` is verification-bound (``integrity``, ``fs.alloc``,
``fs.layout``, ``disk.storage``) with ``sim`` under 5 %.
"""

from __future__ import annotations

import dataclasses
import random
import zlib
from dataclasses import dataclass, field
from typing import Callable

from repro.harness.metrics import collect
from repro.harness.recording import record_run
from repro.harness.runner import (
    FULL_CACHE_BYTES,
    STANDARD_SCHEMES,
    build_machine,
    run_copy,
    run_remove,
    standard_scheme_config,
)
from repro.integrity import explorer
from repro.integrity.fsck import fsck
from repro.integrity.invariants import classify_report, unexpected
from repro.integrity.medialog import ImageSynthesizer
from repro.ordering.registry import by_display_name
from repro.workloads import (
    TreeSpec,
    build_tree,
    copy_tree_user,
    populate_sources,
    remove_tree_user,
    run_microbench,
    tree_layout,
)

SCALE = 0.15
USERS = 4
#: memory shrinks with the workload so the copy's cache pressure is kept
CACHE_BYTES = max(1024 * 1024, int(FULL_CACHE_BYTES * SCALE))
MAX_EVENTS = 300_000_000

#: figure 5 at scale 0.15: 1500 one-KB files split among the users; the
#: seed moves the count a little, since the shipped microbenchmark has no
#: random input of its own
DIROPS_FILES = 1500
DIROPS_JITTER = 4
DIROPS_MODES = ("create", "remove", "create_remove")
DIROPS_SCHEMES = ("Soft Updates", "Conventional")
FILE_SIZE = 1024

SWEEP_OPS = 128
SWEEP_POINTS = 240
SWEEP_SAMPLES_PER_WRITE = 2
#: (scheme slug, fault profile); the last one is the small fault sweep
SWEEP_CELLS = (("softupdates", None), ("conventional", None),
               ("journal", None), ("softupdates", "transient"))
FAULT_SEED = 1

#: "% of No Order" elapsed, tables 1-2 of the paper as quoted in
#: EXPERIMENTS.md; dirops and crash_sweep have no reference column
PAPER_PCT_OF_NO_ORDER = {
    "copy4": {"conventional": 123.9, "flag": 120.9, "chains": 119.0,
              "softupdates": 101.4},
    "remove4": {"conventional": 1050.0, "flag": 327.0, "chains": 406.0,
                "softupdates": 87.8},
}


@dataclass
class Outcome:
    """What one run of one cell produced (everything here is simulated or
    counted, so it must repeat exactly round over round)."""

    sim: dict
    ops: int
    sim_elapsed: float
    counters: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)


def _machine_counters(machine) -> dict:
    """Layer work counts, read off public attributes after a run."""
    manager = getattr(machine.scheme, "manager", None)
    faults = machine.disk.faults
    return {
        "sim.events": machine.engine.events_processed,
        "cache.hits": machine.cache.hits,
        "cache.misses": machine.cache.misses,
        "cache.flushes_forced": machine.cache.flushes_forced,
        "cache.syncer_writes": machine.syncer.writes_started,
        "cache.workitems": machine.syncer.workitems_run,
        "ordering.su_deps_created": getattr(manager, "deps_created", 0),
        "ordering.su_rollbacks": getattr(manager, "rollbacks", 0),
        "driver.retries": machine.driver.retries,
        "disk.sectors_written": machine.disk.storage.sectors_written,
        "disk.trackcache_hits": machine.disk.cache.hits,
        "disk.trackcache_misses": machine.disk.cache.misses,
        "faults.injected": faults.injected if faults is not None else 0,
        "faults.retries": machine.driver.retries if faults is not None else 0,
    }


def _driver_counters(result) -> dict:
    """The driver-window counts of a ``collect()`` result (sums, not means,
    so rounds can add cells up before dividing)."""
    return {
        "driver.requests": result.disk_requests,
        "driver.reads": result.reads,
        "driver.writes": result.writes,
        "driver.queue_s_sum": result.queue_avg * result.disk_requests,
        "disk.access_s_sum": result.access_avg * result.disk_requests,
    }


def _simulated_fields(result) -> dict:
    """A RunResult's simulated fields (host wall clock and tags dropped)."""
    fields = dataclasses.asdict(result)
    del fields["wall_seconds"], fields["extra"]
    return fields


# ----------------------------------------------------------------------
# simulating cells: copy4, remove4, dirops
# ----------------------------------------------------------------------
class _SimCell:
    """One scheme's simulation, split the way ``run_copy`` runs it."""

    def __init__(self, workload: str, display_name: str, seed: int,
                 mode: str = "") -> None:
        self.display_name = display_name
        self.scheme = by_display_name(display_name).slug
        self.mode = mode
        self.id = f"{workload}/{self.scheme}" + (f"/{mode}" if mode else "")

    def config(self):
        return standard_scheme_config(self.display_name, alloc_init=False,
                                      cache_bytes=CACHE_BYTES)

    def setup(self, span):
        with span("setup.build"):
            machine = build_machine(self.config())
        with span("setup.populate"):
            self.populate(machine)
        return machine

    def measure(self, machine, span):
        mark = machine.driver.last_issued_id
        start = machine.engine.now
        before = (machine.driver.requests_issued,
                  machine.engine.events_processed)
        with span("run.users"):
            users = [machine.spawn(self.user(machine, user),
                                   name=f"user{user}")
                     for user in range(USERS)]
            machine.run(*users, max_events=MAX_EVENTS)
        # figure 5's measurements stop here, before the flush tail
        users_done = (machine.driver.requests_issued,
                      machine.engine.events_processed)
        with span("run.settle"):
            machine.sync_and_settle()
        with span("run.collect"):
            result = collect(machine, users, mark)
        return users, result, start, before, users_done

    def outcome(self, machine, raw) -> Outcome:
        users, result = raw[:2]
        out = Outcome(sim=_simulated_fields(result), ops=self.ops(),
                      sim_elapsed=result.elapsed,
                      counters=_machine_counters(machine))
        out.counters.update(_driver_counters(result))
        if not all(user.triggered and user.ok for user in users):
            out.failures.append("not every user finished")
        return out

    def verify(self, machine) -> list:
        report = fsck(machine.disk.storage, machine.config.fs_geometry)
        return [] if report.clean else [
            f"post-settle fsck: {len(report.errors)} errors, "
            f"first: {report.errors[0]}"]

    def shipped_view(self, sim: dict) -> dict:
        """The part of ``Outcome.sim`` the shipped runner also reports."""
        return sim

    def reference_mismatch(self, outcome: Outcome) -> list:
        """Fields on which this phase split and the shipped runner differ."""
        shipped, mine = self.reference(), self.shipped_view(outcome.sim)
        return sorted(key for key in shipped.keys() | mine.keys()
                      if key not in shipped or key not in mine
                      or shipped[key] != mine[key])


class _TreeCell(_SimCell):
    def __init__(self, workload, display_name, seed):
        super().__init__(workload, display_name, seed)
        self.tree = dataclasses.replace(TreeSpec().scaled(SCALE), seed=seed)

    def ops(self) -> int:
        directories, files = tree_layout(self.tree)
        return USERS * (1 + len(directories) + len(files))


class CopyCell(_TreeCell):
    """Table 1: each user copies its own cold source tree."""

    def populate(self, machine):
        populate_sources(machine, USERS, self.tree)

    def user(self, machine, user):
        return copy_tree_user(machine, user)

    def reference(self) -> dict:
        return _simulated_fields(run_copy(self.config(), USERS, self.tree))


class RemoveCell(_TreeCell):
    """Table 2: each user removes a freshly built tree, cache warm."""

    def populate(self, machine):
        def builder():
            for user in range(USERS):
                yield from machine.fs.mkdir(f"/u{user}")
                yield from build_tree(machine.fs, f"/u{user}/tree", self.tree)

        machine.populate(builder(), cold_cache=False)

    def user(self, machine, user):
        return remove_tree_user(machine, user)

    def reference(self) -> dict:
        return _simulated_fields(run_remove(self.config(), USERS, self.tree))


def _create_files(machine, user, count):
    payload = bytes([user % 251]) * FILE_SIZE
    for index in range(count):
        yield from machine.fs.write_file(f"/u{user}/f{index}", payload)


def _remove_files(machine, user, count):
    for index in range(count):
        yield from machine.fs.unlink(f"/u{user}/f{index}")


def _create_remove_files(machine, user, count):
    payload = bytes([user % 251]) * FILE_SIZE
    for index in range(count):
        yield from machine.fs.write_file(f"/u{user}/f{index}", payload)
        yield from machine.fs.unlink(f"/u{user}/f{index}")


_DIROPS_USERS = {"create": _create_files, "remove": _remove_files,
                 "create_remove": _create_remove_files}


class DiropsCell(_SimCell):
    """Figure 5: one-KB files created/removed in per-user directories.

    The user loops are the benchmark's own (the shipped ones are private to
    ``repro.workloads.microbench``); ``reference`` holds them to
    ``run_microbench`` field for field.
    """

    def __init__(self, workload, display_name, seed, mode):
        super().__init__(workload, display_name, seed, mode)
        jitter = random.Random(seed).randint(-DIROPS_JITTER, DIROPS_JITTER)
        self.per_user = DIROPS_FILES // USERS + jitter

    def ops(self) -> int:
        per_file = 2 if self.mode == "create_remove" else 1
        return per_file * self.per_user * USERS

    def populate(self, machine):
        def builder():
            for user in range(USERS):
                yield from machine.fs.mkdir(f"/u{user}")
            if self.mode == "remove":
                for user in range(USERS):
                    yield from _create_files(machine, user, self.per_user)

        machine.populate(builder())

    def user(self, machine, user):
        return _DIROPS_USERS[self.mode](machine, user, self.per_user)

    def outcome(self, machine, raw) -> Outcome:
        out = super().outcome(machine, raw)
        users, _result, start, before, users_done = raw
        files = self.per_user * USERS
        elapsed = max(user.finished_at for user in users) - start
        out.sim["microbench"] = {
            "scheme": machine.scheme_name, "mode": self.mode,
            "users": USERS, "files": files, "elapsed": elapsed,
            "throughput": files / elapsed if elapsed > 0 else 0.0,
            "disk_requests": users_done[0] - before[0],
            "sim_events": users_done[1] - before[1]}
        return out

    def shipped_view(self, sim: dict) -> dict:
        return sim["microbench"]

    def reference(self) -> dict:
        machine = build_machine(self.config())
        return dataclasses.asdict(run_microbench(
            machine, USERS, self.per_user * USERS, self.mode))


# ----------------------------------------------------------------------
# crash sweeps
# ----------------------------------------------------------------------
def _findings(rows: list) -> dict:
    """Per-point verdict rows (index, errors, warnings, violation keys,
    unexpected count), reduced to what two sweeps must agree on."""
    return {"points": len(rows),
            "violating": sum(1 for row in rows if row[3]),
            "unexpected": sum(1 for row in rows if row[4]),
            "findings_crc": zlib.crc32(repr(sorted(rows)).encode())}


class SweepCell:
    """One explorer sweep: record, enumerate, verify 240 crash points."""

    def __init__(self, workload: str, scheme: str, fault_profile,
                 seed: int) -> None:
        self.scheme = scheme
        self.fault_profile = fault_profile
        self.seed = seed
        self.id = f"{workload}/{scheme}" + (
            f"/{fault_profile}" if fault_profile else "")

    def setup(self, span):
        """The machine a sweep records on.  ``explore()`` builds its own, so
        in untraced rounds this one only prices the set-up; the traced
        per-point loop runs on it."""
        with span("setup.build"):
            return explorer.build_machine(self.scheme,
                                          fault_profile=self.fault_profile,
                                          fault_seed=FAULT_SEED)

    def measure(self, machine, span):
        return explorer.explore(
            self.scheme, "microbench", seed=self.seed, ops=SWEEP_OPS,
            max_points=SWEEP_POINTS, jobs=1,
            samples_per_write=SWEEP_SAMPLES_PER_WRITE,
            fault_profile=self.fault_profile, fault_seed=FAULT_SEED)

    def outcome(self, machine, report) -> Outcome:
        rows = [(f.index, f.errors, f.warnings,
                 tuple(v.key for v in f.violations), len(f.unexpected))
                for f in report.findings]
        out = Outcome(
            sim={**_findings(rows),
                 "enumerated": report.enumerated_points,
                 "quiesce_time": report.quiesce_time,
                 "write_windows": report.write_windows,
                 "sim_events": report.sim_events,
                 "log_bytes": report.log_bytes},
            ops=report.points, sim_elapsed=report.quiesce_time,
            counters={"sim.events": report.sim_events,
                      "integrity.points": report.points,
                      "integrity.enumerated": report.enumerated_points,
                      "integrity.unexpected": len(report.unexpected_findings),
                      "integrity.log_bytes": report.log_bytes})
        if report.unexpected_findings:
            out.failures.append(
                f"{len(report.unexpected_findings)} unexpected findings")
        if report.exit_status != 0:
            out.failures.append(f"exit_status {report.exit_status}")
        if report.points < SWEEP_POINTS:
            out.failures.append(f"only {report.points} crash points")
        if report.mode != "synthesize":
            out.failures.append(f"mode {report.mode!r}")
        return out

    def verify(self, machine) -> list:
        return []  # every point of the sweep is an fsck already

    # -- the traced form: the same sweep from its public pieces ------------
    def measure_traced(self, machine, span):
        with span("record"):
            recorded = record_run(
                machine, explorer.build_workload(machine, "microbench",
                                                 self.seed, SWEEP_OPS),
                capture_media=True)
        with span("enumerate"):
            points = explorer.enumerate_crash_points(
                recorded, SWEEP_SAMPLES_PER_WRITE, SWEEP_POINTS,
                sample_seed=self.seed)
        geometry = machine.config.fs_geometry
        guarantees = machine.scheme.crash_guarantees
        synthesizer = ImageSynthesizer(recorded.base_image,
                                       recorded.media_log)
        rows = []
        for point in sorted(points, key=lambda p: (p.time, p.index)):
            with span("point"):
                with span("synth"):
                    image = synthesizer.image_at(point.time)
                with span("fsck"):
                    report = fsck(image, geometry)
                with span("classify"):
                    violations = classify_report(report)
                    outside = unexpected(violations, guarantees)
            rows.append((point.index, len(report.errors),
                         len(report.warnings),
                         tuple(v.key for v in violations), len(outside)))
        return recorded, rows

    def outcome_traced(self, machine, raw) -> Outcome:
        """The traced loop's findings, in ``outcome``'s shape, plus the
        machine counters ``explore()`` keeps to itself."""
        recorded, rows = raw
        out = Outcome(
            sim={**_findings(rows),
                 "quiesce_time": recorded.quiesce_time,
                 "write_windows": len(recorded.windows),
                 "sim_events": recorded.events_processed,
                 "log_bytes": recorded.media_log.payload_bytes},
            ops=len(rows), sim_elapsed=recorded.quiesce_time,
            counters=_machine_counters(machine))
        # the whole recording is the window: no users, every request id
        out.counters.update(_driver_counters(collect(machine, [], -1)))
        return out


# ----------------------------------------------------------------------
# the paper's shapes, and the table of workloads
# ----------------------------------------------------------------------
def _elapsed_by_scheme(outcomes: dict) -> dict:
    return {cell.scheme: outcome.sim["elapsed"]
            for cell, outcome in outcomes.items()}


def _shape_copy4(outcomes: dict) -> list:
    """Table 1: Soft Updates <= 1.08 x No Order < Conventional."""
    elapsed = _elapsed_by_scheme(outcomes)
    ok = (elapsed["softupdates"] <= 1.08 * elapsed["noorder"]
          and elapsed["noorder"] < elapsed["conventional"])
    return [] if ok else ["softupdates", "noorder", "conventional"]


def _shape_remove4(outcomes: dict) -> list:
    """Table 2: Soft Updates beats even No Order."""
    elapsed = _elapsed_by_scheme(outcomes)
    ok = elapsed["softupdates"] < elapsed["noorder"]
    return [] if ok else ["softupdates", "noorder"]


def _shape_dirops(outcomes: dict) -> list:
    """Figure 5c: Soft Updates create/remove pairs at > 2 x Conventional."""
    rate = {cell.scheme: outcome.sim["microbench"]["throughput"]
            for cell, outcome in outcomes.items()
            if cell.mode == "create_remove"}
    ok = rate["softupdates"] > 2 * rate["conventional"]
    return [] if ok else ["softupdates", "conventional"]


@dataclass(frozen=True)
class Workload:
    """The runnable half of a ``catalogue.WORKLOADS`` entry."""

    #: seed -> the round's cells
    cells: Callable
    #: first-round outcomes -> scheme slugs whose cells broke the paper's
    #: shape (empty when it holds)
    shape: Callable


WORKLOADS = {
    "copy4": Workload(
        lambda seed: [CopyCell("copy4", name, seed)
                      for name in STANDARD_SCHEMES],
        _shape_copy4),
    "remove4": Workload(
        lambda seed: [RemoveCell("remove4", name, seed)
                      for name in STANDARD_SCHEMES],
        _shape_remove4),
    "dirops": Workload(
        lambda seed: [DiropsCell("dirops", name, seed, mode)
                      for name in DIROPS_SCHEMES for mode in DIROPS_MODES],
        _shape_dirops),
    "crash_sweep": Workload(
        lambda seed: [SweepCell("crash_sweep", scheme, profile, seed)
                      for scheme, profile in SWEEP_CELLS],
        lambda outcomes: []),
}


def paper_err_pct(workload: str, outcomes: dict):
    """Mean |sim - paper| / paper on "% of No Order" elapsed, in percent;
    None where the paper gives no column (unvalidated, no reference)."""
    paper = PAPER_PCT_OF_NO_ORDER.get(workload)
    if paper is None:
        return None
    elapsed = _elapsed_by_scheme(outcomes)
    errors = [abs(100.0 * elapsed[scheme] / elapsed["noorder"] - pct) / pct
              for scheme, pct in paper.items()]
    return 100.0 * sum(errors) / len(errors)
