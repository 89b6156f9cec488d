"""One workload, in one fresh process: timed rounds, checks, traced rounds.

``bench/run.py`` starts this with a scrubbed environment and reads the one
JSON document it prints.  Load shape: closed loop, one client -- cells run
back to back in this process, ``jobs=1``, no pools, no threads.

Untraced rounds come first and carry every end-to-end number.  ``--trace 1``
then adds, in this order: the shipped-runner reference for every simulating
cell (untimed), one *span round* (benchmark-owned spans, and for sweeps the
per-point loop built from public pieces) and one *profile round*
(``cProfile`` around each measured phase, folded into layers).  Spans and
the profiler never run together, so span durations are not inflated by the
profiler and ``harness.trace_overhead`` is the profiler's cost alone.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import gc
import json
import pathlib
import resource
import statistics
import sys
import time
import traceback

import catalogue
import layers
from calibrate import calibrate, reference_seconds

MIN_ROUNDS = 3

#: counters a round sums over its cells and reports under the same name
_SUMMED = ("sim.events", "cache.hits", "cache.misses", "cache.flushes_forced",
           "cache.syncer_writes", "cache.workitems",
           "ordering.su_deps_created", "ordering.su_rollbacks",
           "driver.requests", "driver.reads", "driver.writes",
           "driver.retries", "disk.sectors_written", "integrity.points",
           "integrity.enumerated", "integrity.unexpected",
           "integrity.log_bytes", "faults.injected", "faults.retries")


class Spans:
    """Benchmark-owned spans, kept in memory until the workload ends.

    ``start``/``end`` are ``time.process_time()`` (CPU seconds since the
    process began), like every other host timing here.
    """

    def __init__(self) -> None:
        self.records: list[dict] = []
        self.cell = None
        self._open: list[int] = []

    @contextlib.contextmanager
    def __call__(self, name: str):
        record = {"id": len(self.records), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "cell": self.cell, "start": time.process_time(),
                  "end": None}
        self.records.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.process_time()
            self._open.pop()

    def summary(self) -> dict:
        """name -> count, total and self seconds (duration minus the part
        child spans cover)."""
        covered = [0.0] * len(self.records)
        for record in self.records:
            if record["parent"] is not None:
                covered[record["parent"]] += record["end"] - record["start"]
        out: dict = {}
        for record, children in zip(self.records, covered):
            duration = record["end"] - record["start"]
            entry = out.setdefault(
                record["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - children
        return out

    def durations(self, name: str) -> list:
        return [record["end"] - record["start"] for record in self.records
                if record["name"] == name]


class _NoSpans:
    """Tracing off: the same call shape, nothing recorded."""

    cell = None

    def __call__(self, name: str):
        return contextlib.nullcontext()


class CellRun:
    """One cell in one round: host timings, outcome, failures."""

    def __init__(self, cell) -> None:
        self.cell = cell
        self.setup_s = self.run_s = self.run_wall_s = 0.0
        self.setup_ref_s = self.run_ref_s = 0.0
        self.outcome = None
        self.failures: list[str] = []
        #: the profile round's fold of this cell's measured phase
        self.layers = None


def run_round(cells, spans, calibrations: list, first: bool = False,
              traced: bool = False, profile: bool = False) -> list:
    """One pass over *cells*; n + 1 calibrations bracket the n cells."""
    runs = []
    calib_before = calibrate()
    calibrations.append(calib_before)
    for cell in cells:
        run = CellRun(cell)
        runs.append(run)
        measure, outcome = cell.measure, cell.outcome
        if traced and hasattr(cell, "measure_traced"):  # sweeps only
            measure, outcome = cell.measure_traced, cell.outcome_traced
        profiler = cProfile.Profile() if profile else None
        spans.cell = cell.id
        gc.collect()
        state = raw = None
        try:
            with spans("cell"):
                started = time.process_time()
                state = cell.setup(spans)
                built = time.process_time()
                wall = time.perf_counter()
                if profiler is not None:
                    profiler.enable()
                try:
                    raw = measure(state, spans)
                finally:
                    if profiler is not None:
                        profiler.disable()
                done = time.process_time()
                run.run_wall_s = time.perf_counter() - wall
            run.setup_s, run.run_s = built - started, done - built
        except Exception as exc:  # a cell that raises is a failed cell
            traceback.print_exc()
            run.failures.append(f"raised {exc!r}")
        calib_after = calibrate()
        calibrations.append(calib_after)
        run.setup_ref_s = reference_seconds(run.setup_s, calib_before,
                                            calib_after)
        run.run_ref_s = reference_seconds(run.run_s, calib_before,
                                          calib_after)
        calib_before = calib_after
        if raw is None:
            continue
        # checks run here, outside every timed phase
        run.outcome = outcome(state, raw)
        run.failures += run.outcome.failures
        if first:
            run.failures += cell.verify(state)
        if profiler is not None:
            run.layers = layers.fold(profiler.getstats())
    spans.cell = None
    return runs


def _differences(expected: dict, got: dict) -> list:
    """Keys of *got* whose value differs from *expected*'s."""
    return sorted(key for key in got if got[key] != expected.get(key))


def _tail(samples: list):
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    for percentile in (99.9, 99.0, 95.0, 90.0, 75.0):
        beyond = int(len(ordered) * (1.0 - percentile / 100.0))
        if beyond >= 10:
            return {"percentile": percentile, "n": len(ordered),
                    "value": ordered[len(ordered) - beyond - 1]}
    return None


def _sum_optional(values):
    values = [value for value in values if value is not None]
    return sum(values) if values else None


class WorkloadRun:
    """Everything one process measures for one workload."""

    def __init__(self, workloads, name: str, seed: int, out_dir) -> None:
        self.workloads = workloads
        self.name, self.seed, self.out_dir = name, seed, out_dir
        self.workload = workloads.WORKLOADS[name]
        self.cells = self.workload.cells(seed)
        self.failures: dict = {}  # (round label, cell id) -> messages
        self.attempted = 0
        self.per_layer = {metric.name: None
                          for metric in catalogue.PER_LAYER}
        self.result: dict = {}

    def fail(self, label, cell, message: str) -> None:
        self.failures.setdefault((label, cell.id), []).append(message)

    def note(self, label, runs) -> None:
        self.attempted += len(runs)
        for run in runs:
            for message in run.failures:
                self.fail(label, run.cell, message)

    # -- untraced rounds: every end-to-end number ---------------------------
    def timed_rounds(self, seconds: float, rounds, import_s: float,
                     import_ref_s: float) -> None:
        calibrations: list = []
        timed: list = []
        loop_start = time.perf_counter()
        while (len(timed) < rounds if rounds else
               len(timed) < MIN_ROUNDS
               or time.perf_counter() - loop_start < seconds):
            timed.append(run_round(self.cells, _NoSpans(), calibrations,
                                   first=not timed))
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.first = first = timed[0]
        for index, runs in enumerate(timed):
            for run, reference in zip(runs, first):
                if run.outcome is None or reference.outcome is None:
                    continue
                for part in ("sim", "counters"):
                    changed = _differences(getattr(reference.outcome, part),
                                           getattr(run.outcome, part))
                    if changed:
                        run.failures.append(
                            f"round {index} differs from round 0 in "
                            f"{changed}")
            self.note(index, runs)
        outcomes = {run.cell: run.outcome for run in first
                    if run.outcome is not None}
        complete = len(outcomes) == len(self.cells)
        if complete:
            broken = self.workload.shape(outcomes)
            for run in first:
                if run.cell.scheme in broken:
                    self.fail(0, run.cell, "the paper's shape does not hold")

        round_ref = [sum(run.run_ref_s for run in runs) for runs in timed]
        round_raw = [sum(run.run_s for run in runs) for runs in timed]
        round_setup = [sum(run.setup_ref_s for run in runs) for runs in timed]
        round_wall = [sum(run.run_wall_s for run in runs) for runs in timed]
        cpu_ref_s = statistics.median(round_ref)
        self.cpu_s_raw = statistics.median(round_raw)
        ops = sum(outcome.ops for outcome in outcomes.values())
        self.counters: dict = {}
        for outcome in outcomes.values():
            for key, value in outcome.counters.items():
                self.counters[key] = self.counters.get(key, 0) + value
        self.result.update({
            "workload": self.name, "seed": self.seed, "rounds": len(timed),
            "ops": ops, "op": catalogue.WORKLOADS[self.name][1],
            "end_to_end": {
                "setup_s": import_ref_s + statistics.median(round_setup),
                "cpu_ref_s": cpu_ref_s,
                "ops_per_ref_s": ops / cpu_ref_s,
                "peak_rss_mb": peak_rss_mb,
                "sim_elapsed_s": sum(o.sim_elapsed
                                     for o in outcomes.values())},
            "cpu_ref_s_quartiles": (statistics.quantiles(round_ref, n=4)
                                    if len(round_ref) > 1 else None),
            "cpu_ref_s_rounds": round_ref,
            "cells": [{"id": run.cell.id, "scheme": run.cell.scheme,
                       "cpu_ref_s": statistics.median(
                           runs[index].run_ref_s for runs in timed),
                       "setup_ref_s": statistics.median(
                           runs[index].setup_ref_s for runs in timed),
                       "ops": run.outcome and run.outcome.ops,
                       "sim_elapsed_s": (run.outcome
                                         and run.outcome.sim_elapsed),
                       "sim": run.outcome and run.outcome.sim}
                      for index, run in enumerate(first)],
        })
        per_layer = self.per_layer
        if complete:
            per_layer["paper_err_pct"] = self.workloads.paper_err_pct(
                self.name, outcomes)
        for slug in catalogue.SCHEME_SLUGS:
            if any(cell.scheme == slug for cell in self.cells):
                per_layer[f"ordering.{slug}.cpu_ref_s"] = statistics.median(
                    sum(run.run_ref_s for run in runs
                        if run.cell.scheme == slug) for runs in timed)
        per_layer.update({
            "harness.import_s": import_s,
            "harness.cpu_s_raw": self.cpu_s_raw,
            "harness.calib_s": statistics.median(calibrations),
            "harness.round_spread":
                (max(round_ref) - min(round_ref)) / cpu_ref_s,
            "harness.wall_over_cpu": statistics.median(
                wall / raw for wall, raw in zip(round_wall, round_raw)),
        })

    # -- traced rounds ------------------------------------------------------
    def reference_check(self) -> None:
        """The benchmark's phase split against the shipped runner."""
        for run in self.first:
            if (run.outcome is None
                    or not hasattr(run.cell, "reference_mismatch")):
                continue
            changed = run.cell.reference_mismatch(run.outcome)
            if changed:
                self.fail(0, run.cell, "phase split disagrees with the "
                          f"shipped runner in {changed}")

    def span_round(self) -> None:
        spans = Spans()
        runs = run_round(self.cells, spans, [], traced=True)
        for run, reference in zip(runs, self.first):
            if run.outcome is None or reference.outcome is None:
                continue
            changed = _differences(reference.outcome.sim, run.outcome.sim)
            if changed:
                run.failures.append(
                    f"traced round differs from round 0 in {changed}")
            # sweeps: the machine counters explore() keeps to itself
            for key, value in run.outcome.counters.items():
                if key not in reference.outcome.counters:
                    self.counters[key] = self.counters.get(key, 0) + value
        self.note("spans", runs)

        summary = spans.summary()
        self.result["spans"] = summary
        per_layer = self.per_layer
        for phase in ("record", "synth", "fsck", "classify"):
            if phase in summary:
                per_layer[f"integrity.{phase}_s"] = summary[phase]["total_s"]
        points_ms = [1000.0 * s for s in spans.durations("point")]
        if points_ms:
            per_layer["integrity.point_ms_p50"] = statistics.median(points_ms)
            tail = _tail(points_ms)
            self.result["point_ms_tail"] = tail
            per_layer["integrity.point_ms_tail"] = tail and tail["value"]
        trace_path = pathlib.Path(self.out_dir) / f"trace_{self.name}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps(
            {"workload": self.name, "seed": self.seed,
             "clock": "process_time", "spans": spans.records}))
        self.result["trace_file"] = str(trace_path)

    def profile_round(self) -> None:
        runs = run_round(self.cells, _NoSpans(), [], profile=True)
        self.note("profile", runs)
        folded = [run.layers for run in runs if run.layers is not None]
        total_s = sum(fold["total_s"] for fold in folded)
        per_layer = self.per_layer
        for layer in layers.LAYERS:
            self_s = sum(fold["layers"][layer]["self_s"] for fold in folded)
            per_layer[f"{layer}.self_s"] = self_s
            per_layer[f"{layer}.share"] = self_s / total_s if total_s else 0.0
            per_layer[f"{layer}.calls"] = sum(
                fold["layers"][layer]["calls"] for fold in folded)
        for key in ("py_calls", "sim.resumes", "sim.compute_calls"):
            per_layer[key] = _sum_optional(fold[key] for fold in folded)
        per_layer["harness.trace_overhead"] = sum(
            run.run_s for run in runs) / self.cpu_s_raw
        for cell_entry, run in zip(self.result["cells"], runs):
            if run.layers is not None:
                cell_entry["layer_share"] = {
                    layer: bucket["share"]
                    for layer, bucket in run.layers["layers"].items()}

    # -- counters: read off public attributes, summed over the round --------
    def finish(self) -> dict:
        counters, per_layer = self.counters, self.per_layer
        for key in _SUMMED:
            per_layer[key] = counters.get(key)
        if counters.get("sim.events"):
            per_layer["sim.us_per_event"] = (
                1e6 * self.cpu_s_raw / counters["sim.events"])
        lookups = (counters.get("cache.hits", 0)
                   + counters.get("cache.misses", 0))
        if lookups:
            per_layer["cache.hit_ratio"] = counters["cache.hits"] / lookups
        requests = counters.get("driver.requests")
        if requests:
            per_layer["driver.queue_ms_avg"] = (
                1000.0 * counters["driver.queue_s_sum"] / requests)
            per_layer["disk.access_ms_avg"] = (
                1000.0 * counters["disk.access_s_sum"] / requests)
        reads = (counters.get("disk.trackcache_hits", 0)
                 + counters.get("disk.trackcache_misses", 0))
        if reads:
            per_layer["disk.trackcache_hit_ratio"] = (
                counters["disk.trackcache_hits"] / reads)
        failed = len(self.failures)
        self.result.update({
            "per_layer": per_layer, "attempted": self.attempted,
            "failed": failed, "failed_share": failed / self.attempted,
            "failures": [{"round": label, "cell": cell, "why": why}
                         for (label, cell), why in self.failures.items()],
        })
        return self.result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(catalogue.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=catalogue.RUN_SECONDS)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    calibrate()  # warm-up: the first pass pays for the interpreter's caches
    before = calibrate()
    start = time.process_time()
    import workloads  # the one-off `import repro...`, timed as set-up
    import_s = time.process_time() - start
    after = calibrate()

    run = WorkloadRun(workloads, args.workload, args.seed, args.out)
    run.timed_rounds(args.seconds, args.rounds, import_s,
                     reference_seconds(import_s, before, after))
    if args.trace:
        run.reference_check()
        run.span_round()
        run.profile_round()
    json.dump(run.finish(), sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
