"""The repo benchmark: four fixed workloads, every metric by name.

    python3 bench/run.py [--workload W] [--seed N] [--seconds S]
                         [--rounds N] [--trace 0|1] [--out DIR]
    python3 bench/run.py --compare A.json B.json

Each workload runs in its own fresh process (``bench/worker.py``) with every
``REPRO_*`` variable removed and ``PYTHONHASHSEED=0``, so it measures the
shipped defaults.  Nothing outside ``--out`` (default ``bench/out``) is
written: no ``results/``, no ``BENCH_perf.json``, no ledger.

With ``--workload`` the last line printed is the one-object summary the
benchmark driver reads: end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``.  Without it all four workloads run, traced.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import pathlib
import platform
import subprocess
import sys

import catalogue

BENCH_DIR = pathlib.Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

#: metrics computed from the rounds' host timings: a comparison of these is
#: unresolved when the rounds themselves spread wider than the bound
_TIMED = frozenset({"setup_s", "cpu_ref_s", "ops_per_ref_s"})


def host_facts() -> dict:
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy_importable": importlib.util.find_spec("numpy") is not None,
            "loadavg_1min_at_start": os.getloadavg()[0]}


def worker_environment() -> dict:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC_DIR)
    return env


def run_worker(workload: str, args) -> dict:
    command = [sys.executable, str(BENCH_DIR / "worker.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", str(args.out)]
    if args.rounds is not None:
        command += ["--rounds", str(args.rounds)]
    done = subprocess.run(command, env=worker_environment(),
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _show(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_workload(result: dict, trace: bool) -> None:
    name = result["workload"]
    print(f"== {name} (seed {result['seed']}, {result['rounds']} rounds, "
          f"{result['ops']} ops; op = one {result['op']}) ==")
    for metric in catalogue.END_TO_END:
        value = result["end_to_end"][metric.name]
        line = f"  {metric.name:28s} {_show(value)} {metric.unit}"
        if metric.name == "cpu_ref_s" and result["cpu_ref_s_quartiles"]:
            q1, _, q3 = result["cpu_ref_s_quartiles"]
            line += (f"   (quartiles {q1:.4g}..{q3:.4g}, "
                     f"n={result['rounds']} rounds)")
        print(line)
    print(f"  {'failed_share':28s} {_show(result['failed_share'])} ratio   "
          f"({result['failed']} of {result['attempted']} cells)")
    for failure in result["failures"]:
        print(f"    FAILED {failure['cell']} (round {failure['round']}): "
              f"{'; '.join(failure['why'])}")
    for metric in catalogue.PER_LAYER:
        value = result["per_layer"][metric.name]
        if value is None and not trace:
            continue  # nearly everything per layer needs the traced rounds
        line = f"  {metric.name:28s} {_show(value)} {metric.unit}"
        tail = result.get("point_ms_tail")
        if metric.name == "integrity.point_ms_tail" and tail:
            line += f"   (p{tail['percentile']:g}, n={tail['n']})"
        if metric.name == "paper_err_pct" and value is None:
            line += "   (unvalidated, no reference)"
        print(line)


def driver_line(result: dict, trace: bool) -> str:
    """The summary object the benchmark driver reads off the last line.
    A per-layer metric that does not apply reads -1 there."""
    if trace:
        metrics = {m.name: {"value": -1 if result["per_layer"][m.name] is None
                            else result["per_layer"][m.name], "unit": m.unit}
                   for m in catalogue.PER_LAYER}
    else:
        metrics = {m.name: {"value": result["end_to_end"][m.name],
                            "unit": m.unit} for m in catalogue.END_TO_END}
    return json.dumps({"correct": result["failed"] == 0,
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def _verdict(metric, a, b, same_seed: bool, spread: float) -> str:
    if metric.repeats:
        if not same_seed:
            return "seeds differ"
        return "ok" if a == b else "changed"
    worse = (b - a) / a if metric.better == "lower" else (a - b) / a
    if metric.name in _TIMED and spread > metric.bound:
        return "unresolved"
    return "worse" if worse > metric.bound else "ok"


def compare(path_a: str, path_b: str) -> int:
    """Per workload x end-to-end metric: A, B, delta, bound, verdict; then
    every per-layer number that repeats exactly yet moved.  Simulated output
    that moved is ``changed`` and fails the comparison like ``worse`` does; a
    cost count that moved is only shown -- lowering those is the point of an
    optimisation.  Returns the exit status."""
    runs_a = json.loads(pathlib.Path(path_a).read_text())["workloads"]
    runs_b = json.loads(pathlib.Path(path_b).read_text())["workloads"]
    bad = 0
    for name in runs_a:
        if name not in runs_b:
            continue
        a, b = runs_a[name], runs_b[name]
        same_seed = a["seed"] == b["seed"]
        spread = max(a["per_layer"]["harness.round_spread"],
                     b["per_layer"]["harness.round_spread"])
        print(f"== {name} (round spread {spread:.3f}) ==")
        print(f"  {'metric':16s} {'A':>12s} {'B':>12s} {'delta':>8s} "
              f"{'bound':>6s}  verdict")
        for metric in catalogue.END_TO_END:
            va, vb = a["end_to_end"][metric.name], b["end_to_end"][metric.name]
            verdict = _verdict(metric, va, vb, same_seed, spread)
            bad += verdict in ("worse", "changed")
            print(f"  {metric.name:16s} {_show(va):>12s} {_show(vb):>12s} "
                  f"{100.0 * (vb - va) / va:+7.2f}% "
                  f"{100.0 * metric.bound:5.1f}%  {verdict}")
        if not same_seed:
            continue
        checked = 0
        for metric in catalogue.PER_LAYER:
            va, vb = a["per_layer"][metric.name], b["per_layer"][metric.name]
            if not metric.repeats or va is None or vb is None:
                continue
            checked += 1
            if va != vb:
                model = metric.repeats == "model"
                bad += model
                print(f"  {metric.name:28s} {_show(va)} -> {_show(vb)} "
                      f"{metric.unit}  "
                      f"{'changed' if model else 'cost count moved'}")
        print(f"  {checked} exactly repeating per-layer numbers compared")
    print("worse or changed:", bad)
    return 1 if bad else 0


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=list(catalogue.WORKLOADS),
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="feeds the tree, file-count and explorer seeds")
    parser.add_argument("--seconds", type=float,
                        default=catalogue.RUN_SECONDS,
                        help="keep starting rounds for this long "
                             "(never fewer than 3 rounds)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="run exactly this many rounds instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1 adds the span and profile rounds")
    parser.add_argument("--out", type=pathlib.Path,
                        default=BENCH_DIR / "out")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two result.json files; exit 1 on any "
                             "worse or changed")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (SRC_DIR / "repro").is_dir():
        print(f"bench: no simulator to measure at {SRC_DIR / 'repro'}",
              file=sys.stderr)
        return 2

    facts = host_facts()
    names = [args.workload] if args.workload else list(catalogue.WORKLOADS)
    results = {}
    for name in names:
        results[name] = run_worker(name, args)
        print_workload(results[name], bool(args.trace))
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "result.json").write_text(json.dumps(
        {"host": facts, "seed": args.seed, "trace": args.trace,
         "workloads": results}, indent=1))
    if args.workload:
        print(driver_line(results[args.workload], bool(args.trace)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
