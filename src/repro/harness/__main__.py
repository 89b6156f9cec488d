"""Command-line entry point.

``python -m repro.harness [scale]``
    Runs the headline comparison (tables 1 and 2) at the given scale
    (default 0.08, a quick look) and prints the paper-style rows.

``python -m repro.harness trace <copy|remove> [--scheme S] [options]``
    Runs one benchmark cell with observability on and writes a
    Perfetto-loadable ``trace_event`` JSON plus a plain-text flame summary
    under ``results/traces/`` (see ``docs/observability.md``).

``python -m repro.harness faults [options]``
    Runs the seeded disk-fault sweep across ordering schemes and writes
    ``results/fault_report.txt`` (see ``docs/fault-injection.md``).
    Exits nonzero only on silent corruption.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.harness.report import format_table
from repro.ordering.registry import display_aliases
from repro.harness.runner import (
    FULL_CACHE_BYTES,
    STANDARD_SCHEMES,
    run_copy,
    run_remove,
    standard_scheme_config,
)
from repro.workloads.trees import TreeSpec

#: short scheme aliases accepted by the trace subcommand, straight from
#: the single scheme registry
SCHEME_ALIASES = display_aliases()


def _resolve_scheme(name: str) -> str:
    if name in STANDARD_SCHEMES:
        return name
    try:
        return SCHEME_ALIASES[name.lower()]
    except KeyError:
        choices = sorted(SCHEME_ALIASES) + STANDARD_SCHEMES
        raise SystemExit(f"unknown scheme {name!r}; choose from {choices}")


def compare_main(argv: list[str]) -> int:
    """The original headline comparison (``python -m repro.harness [scale]``)."""
    try:
        scale = float(argv[1]) if len(argv) > 1 else 0.08
    except ValueError:
        print("usage: python -m repro.harness "
              "[trace ... | faults ... | [scale]]", file=sys.stderr)
        return 2
    if not scale > 0:
        print(f"usage: python -m repro.harness [scale]: scale must be "
              f"positive, got {argv[1]}", file=sys.stderr)
        return 2
    tree = TreeSpec().scaled(scale)
    cache = max(1 << 20, int(FULL_CACHE_BYTES * scale))
    print(f"# 4-user copy/remove at scale {scale} "
          f"({tree.files} files, {tree.total_bytes / 1e6:.1f} MB per user)\n")

    for title, runner in (("4-user copy", run_copy),
                          ("4-user remove", run_remove)):
        results = {}
        for name in STANDARD_SCHEMES:
            config = standard_scheme_config(name, cache_bytes=cache)
            results[name] = runner(config, 4, tree)
        base = results["No Order"].elapsed
        rows = [[name, r.elapsed, 100 * r.elapsed / base, r.cpu_time,
                 r.disk_requests, r.io_response_avg * 1000]
                for name, r in results.items()]
        print(format_table(
            f"{title} (simulated seconds)",
            ["Scheme", "Elapsed", "% of No Order", "CPU",
             "Disk requests", "I/O resp (ms)"], rows))
        print()
    return 0


def trace_main(argv: list[str]) -> int:
    """Run one traced benchmark cell and export timeline + flame summary."""
    from repro.obs import flame_summary, summarize, write_trace

    parser = argparse.ArgumentParser(
        prog="python -m repro.harness trace",
        description="Run one benchmark cell with tracing on and export a "
                    "Perfetto trace + flame summary.")
    parser.add_argument("bench", choices=["copy", "remove"],
                        help="which benchmark to trace")
    parser.add_argument("--scheme", default="softupdates",
                        help="ordering scheme (alias like 'softupdates' or "
                             "full name like 'Soft Updates')")
    parser.add_argument("--scale", type=float, default=0.05,
                        help="workload scale, 1.0 = paper scale "
                             "(default 0.05: traces stay small)")
    parser.add_argument("--users", type=int, default=1,
                        help="concurrent user processes (default 1)")
    parser.add_argument("--seed", type=int, default=None,
                        help="tree RNG seed (default: the spec's own)")
    parser.add_argument("--out", default="results/traces",
                        help="output directory (default results/traces)")
    args = parser.parse_args(argv)
    if not args.scale > 0:
        parser.error("--scale must be positive")
    if args.users < 1:
        parser.error("--users must be at least 1")

    scheme = _resolve_scheme(args.scheme)
    tree = TreeSpec().scaled(args.scale)
    cache = max(1 << 20, int(FULL_CACHE_BYTES * args.scale))
    config = standard_scheme_config(scheme, cache_bytes=cache)
    config.observe = True

    captured = {}
    runner = run_copy if args.bench == "copy" else run_remove
    label = f"{args.bench} {scheme} scale={args.scale} users={args.users}"
    result = runner(config, args.users, tree, label=label, seed=args.seed,
                    on_machine=lambda machine: captured.update(m=machine))
    machine = captured["m"]

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    slug = f"{args.bench}-{scheme.lower().replace(' ', '-')}"
    trace_path = outdir / f"{slug}.trace.json"
    flame_path = outdir / f"{slug}.flame.txt"
    write_trace(machine, trace_path, label=label)
    flame_path.write_text(flame_summary(machine, label=label) + "\n")

    print(f"# traced {label}")
    print(f"  elapsed {result.elapsed:.3f}s simulated, "
          f"{result.disk_requests} disk requests, "
          f"{len(machine.tracer.spans)} spans, "
          f"{machine.engine.events_processed} events")
    for track, summary in sorted(summarize(machine.tracer).items()):
        print(f"  track {track}: {summary.active:.3f}s active, "
              f"{100 * summary.coverage:.1f}% under named spans")
    print(f"  wrote {trace_path}")
    print(f"  wrote {flame_path}")
    print("  open the JSON in https://ui.perfetto.dev to browse the timeline")
    return 0


def main(argv: list[str]) -> int:
    if len(argv) > 1 and argv[1] == "trace":
        return trace_main(argv[2:])
    if len(argv) > 1 and argv[1] == "faults":
        from repro.harness.faults import main as faults_main
        return faults_main(argv[2:])
    if len(argv) > 1 and argv[1] in ("-h", "--help"):
        print(__doc__.strip())
        return 0
    return compare_main(argv)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
