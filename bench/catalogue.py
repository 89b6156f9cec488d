"""The metric catalogue: every name the benchmark reports, with its unit,
its direction and (end to end) the bound by which it may get worse.

``BENCHMARK.json`` at the repo root lists exactly these names;
``bench/test_bench.py`` holds the two together.

Host time and simulated time never share a metric.  Host timings are
``time.process_time()`` in *reference seconds* (see ``bench/calibrate.py``);
``sim_elapsed_s`` and the ``*_ms_avg`` layer metrics are simulated time on
the modelled 1994 machine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from layers import LAYERS

RUN_SECONDS = 15

SCHEME_SLUGS = ("conventional", "flag", "chains", "softupdates", "journal",
                "noorder")

#: name -> (why it was chosen, what one op is)
WORKLOADS = {
    "copy4": (
        "table 1, 4-user tree copy: data-heavy, cold reads beside data and "
        "metadata writes; sim core, driver, fs.vfs and cache carry it",
        "file or directory copied"),
    "remove4": (
        "table 2, 4-user remove, warm cache: the same layers the other way "
        "round (deletes, held-back driver queues, deferred soft-updates "
        "work)",
        "file or directory removed"),
    "dirops": (
        "figure 5, 1500 one-KB files in per-user directories: fs.directory "
        "dominates and the sim core is mostly bypassed",
        "file created or removed"),
    "crash_sweep": (
        "240-point explorer sweeps plus a transient-fault sweep: "
        "verification-bound (fsck, bitmap and layout decoding, store "
        "snapshots), sim under 5 %",
        "crash point verified"),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    what: str
    #: share of the parent's median by which it may get worse (end to end)
    bound: float = 0.0
    #: "" for a host timing.  Otherwise two runs of one seed agree to the
    #: digit: "model" is simulated output, which a perf or simplicity change
    #: must leave as it is; "cost" counts the simulator's own work, which
    #: such a change is meant to lower
    repeats: str = ""


END_TO_END = (
    Metric("setup_s", "s", "lower",
           "reference seconds of the one-off `import repro...` plus the "
           "median per-round sum of machine build, mkfs/mount and "
           "instant-mode populate", bound=0.25),
    Metric("cpu_ref_s", "ref-s", "lower",
           "median over rounds of the summed measured phase (users spawned "
           "-> users done -> sync_and_settle -> collect; for crash_sweep "
           "the whole explore() call)", bound=0.20),
    Metric("ops_per_ref_s", "op/ref-s", "higher",
           "the workload's op count / cpu_ref_s: work per host second at "
           "the stated input size", bound=0.20),
    Metric("peak_rss_mb", "MB", "lower",
           "ru_maxrss of the workload's process when the untraced rounds "
           "end", bound=0.15),
    Metric("sim_elapsed_s", "sim-s", "lower",
           "sum over cells of mean user elapsed (crash_sweep: of "
           "quiesce_time), simulated seconds; a perf or simplicity change "
           "must leave it bit-identical at a given seed", bound=0.15,
           repeats="model"),
)


def _layer_metrics():
    for layer in LAYERS:
        yield Metric(f"{layer}.self_s", "s", "lower",
                     f"raw CPU seconds inside {layer}'s own frames in the "
                     "traced round (sum of tottime)")
        yield Metric(f"{layer}.share", "ratio", "lower",
                     f"{layer}.self_s / traced total; shares sum to 1")
        yield Metric(f"{layer}.calls", "count", "lower",
                     f"function calls into {layer} in the traced round",
                     repeats="cost")


PER_LAYER = (
    Metric("py_calls", "count", "lower",
           "total function calls in the traced round: an exact, "
           "host-independent cost count, never a speed-up", repeats="cost"),
    Metric("paper_err_pct", "%", "lower",
           "mean over Conventional/Flag/Chains/Soft Updates of |sim - "
           "paper| / paper on '% of No Order' elapsed; none (-1) on dirops "
           "and crash_sweep: unvalidated, no reference", repeats="model"),
    *_layer_metrics(),
    Metric("sim.events", "count", "lower", "engine.events_processed, summed "
           "over the round's cells", repeats="cost"),
    Metric("sim.us_per_event", "us", "lower",
           "raw CPU microseconds of the measured phase / sim.events"),
    Metric("sim.resumes", "count", "lower",
           "ncalls of Process._resume in the traced round", repeats="cost"),
    Metric("sim.compute_calls", "count", "lower",
           "ncalls of CPU.compute in the traced round", repeats="cost"),
    Metric("cache.hits", "count", "higher", "buffer-cache hits",
           repeats="model"),
    Metric("cache.misses", "count", "lower", "buffer-cache misses",
           repeats="model"),
    Metric("cache.hit_ratio", "ratio", "higher", "hits / (hits + misses)",
           repeats="model"),
    Metric("cache.flushes_forced", "count", "lower",
           "writes forced by a full cache", repeats="model"),
    Metric("cache.syncer_writes", "count", "lower",
           "syncer.writes_started", repeats="model"),
    Metric("cache.workitems", "count", "lower", "syncer.workitems_run",
           repeats="model"),
    *(Metric(f"ordering.{slug}.cpu_ref_s", "ref-s", "lower",
             f"median per-round cost of the {slug} cells; none (-1) where "
             "the workload has no such cell")
      for slug in SCHEME_SLUGS),
    Metric("ordering.su_deps_created", "count", "lower",
           "soft-updates dependency structures created", repeats="model"),
    Metric("ordering.su_rollbacks", "count", "lower",
           "soft-updates rollbacks applied to outgoing buffers",
           repeats="model"),
    Metric("driver.requests", "count", "lower",
           "disk requests in the measured window", repeats="model"),
    Metric("driver.reads", "count", "lower", "of which reads",
           repeats="model"),
    Metric("driver.writes", "count", "lower", "of which writes",
           repeats="model"),
    Metric("driver.queue_ms_avg", "sim-ms", "lower",
           "mean simulated wait in the driver queue", repeats="model"),
    Metric("driver.retries", "count", "lower",
           "media operations the driver retried", repeats="model"),
    Metric("disk.sectors_written", "count", "lower",
           "sectors the store took, set-up included", repeats="model"),
    Metric("disk.trackcache_hit_ratio", "ratio", "higher",
           "on-board read cache hits / lookups", repeats="model"),
    Metric("disk.access_ms_avg", "sim-ms", "lower",
           "mean simulated drive service time", repeats="model"),
    Metric("integrity.points", "count", "higher",
           "crash points verified", repeats="model"),
    Metric("integrity.enumerated", "count", "higher",
           "crash points enumerated before the 240-point budget",
           repeats="model"),
    Metric("integrity.record_s", "s", "lower",
           "raw CPU seconds recording the victim runs (span round)"),
    Metric("integrity.synth_s", "s", "lower",
           "raw CPU seconds synthesizing crash images"),
    Metric("integrity.fsck_s", "s", "lower", "raw CPU seconds in fsck"),
    Metric("integrity.classify_s", "s", "lower",
           "raw CPU seconds classifying fsck reports"),
    Metric("integrity.point_ms_p50", "ms", "lower",
           "median raw CPU milliseconds per crash point"),
    Metric("integrity.point_ms_tail", "ms", "lower",
           "the highest percentile with at least ten samples beyond it"),
    Metric("integrity.unexpected", "count", "lower",
           "findings outside a scheme's declaration", repeats="model"),
    Metric("integrity.log_bytes", "count", "lower",
           "media write-log payload held during the sweeps", repeats="model"),
    Metric("faults.injected", "count", "higher",
           "faults the transient cell injected", repeats="model"),
    Metric("faults.retries", "count", "lower",
           "driver retries those faults caused", repeats="model"),
    Metric("harness.import_s", "s", "lower",
           "raw CPU seconds of the one-off import"),
    Metric("harness.cpu_s_raw", "s", "lower",
           "cpu_ref_s before calibration (median round)"),
    Metric("harness.calib_s", "s", "lower",
           "median calibration loop: the host-speed indicator"),
    Metric("harness.round_spread", "ratio", "lower",
           "(max - min) / median of cpu_ref_s over rounds; above a bound "
           "means unresolved, not unchanged"),
    Metric("harness.wall_over_cpu", "ratio", "lower",
           "wall / CPU of the measured phases; above 1.1 flags contention"),
    Metric("harness.trace_overhead", "ratio", "lower",
           "traced / untraced raw CPU seconds, same round shape"),
)


def benchmark_json() -> dict:
    """What ``BENCHMARK.json`` must say."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, (why, _op) in WORKLOADS.items()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
