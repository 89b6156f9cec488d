"""Write the byte-identity corpus: the reports a refactor must not move.

::

    python benchmarks/corpus.py --out DIR [--src SRC] [--jobs N]

runs a fixed list of commands against the ``repro`` package under *SRC*
(default: the ``src/`` next to this script) and writes what each prints:

* ``explorer/S-W.txt`` / ``.json`` -- ``python -m repro.integrity.explorer
  --scheme S --workload W --monitor --secrets --verify-repair`` (text and
  ``--json``) for the ten schemes x four workloads, plus
  ``explorer/softupdates-microbench-transient.*``: the same sweep with
  ``--fault-profile transient --fault-seed 3``;
* ``faults[-monitor].stdout`` / ``.report.txt`` -- ``python -m
  repro.harness faults --seeds 1,2 --ops 40`` without and with
  ``--monitor``, its stdout and its report file;
* ``harness-0.15.stdout`` -- ``python -m repro.harness 0.15``;
* ``exit_status.txt`` -- each command's exit status, one line per output.

Every command is a function of its arguments, so two checkouts whose
reports agree write identical directories: run this script against the
parent's ``src/`` and against this commit's, then ``diff -r`` the two.  A
change that means to move a report lists the moved paths in
``benchmarks/corpus_moves.txt`` (CI skips only the lines the commit
itself adds to that file).  Each command runs in a scratch working
directory; stderr (progress, tracebacks) passes through and is not part
of the corpus.  ``--jobs`` runs that many commands at once (default 1);
the corpus does not depend on it.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

SCHEMES = ["noorder", "conventional", "flag", "chains", "softupdates",
           "journal", "nvram", "shim-rule1", "shim-rule2", "shim-rule3"]
WORKLOADS = ["microbench", "churn", "remove", "reuse"]
SWEEP = ["--monitor", "--secrets", "--verify-repair"]
EXPLORER = ["-m", "repro.integrity.explorer"]
#: the fault sweep writes its report into the command's working directory
FAULT_REPORT = "fault_report.txt"


def commands() -> list[tuple[str, list[str], str | None]]:
    """``(output path, python arguments, report path or None)`` in the
    corpus's fixed order; the report goes beside the output as
    ``NAME.report.txt``."""
    out = []
    for scheme in SCHEMES:
        for workload in WORKLOADS:
            argv = EXPLORER + ["--scheme", scheme, "--workload", workload]
            out.append((f"explorer/{scheme}-{workload}.txt",
                        argv + SWEEP, None))
            out.append((f"explorer/{scheme}-{workload}.json",
                        argv + SWEEP + ["--json"], None))
    argv = EXPLORER + ["--scheme", "softupdates", "--workload",
                       "microbench", *SWEEP, "--fault-profile", "transient",
                       "--fault-seed", "3"]
    name = "explorer/softupdates-microbench-transient"
    out.append((f"{name}.txt", argv, None))
    out.append((f"{name}.json", argv + ["--json"], None))
    for name, extra in (("faults", []), ("faults-monitor", ["--monitor"])):
        out.append((f"{name}.stdout",
                    ["-m", "repro.harness", "faults", "--seeds", "1,2",
                     "--ops", "40", "--out", FAULT_REPORT, *extra],
                    FAULT_REPORT))
    out.append(("harness-0.15.stdout", ["-m", "repro.harness", "0.15"],
                None))
    return out


def run(command, out: pathlib.Path, env: dict) -> int:
    """Run one command in a scratch directory; write what it produced."""
    path, argv, report = command
    target = out / path
    target.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as cwd:
        done = subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                              stdout=subprocess.PIPE, check=False)
        target.write_bytes(done.stdout)
        if report is not None:
            produced = pathlib.Path(cwd, report)
            target.with_suffix(".report.txt").write_bytes(
                produced.read_bytes() if produced.exists() else b"")
    print(f"{done.returncode} {path}", file=sys.stderr, flush=True)
    return done.returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/corpus.py",
        description="write the reports a refactor must leave byte-identical")
    parser.add_argument("--out", required=True, type=pathlib.Path)
    parser.add_argument("--src", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parents[1]
                        / "src",
                        help="the tree whose repro package runs "
                             "(default: this checkout's src/)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="commands run at once (default 1)")
    args = parser.parse_args(argv)
    env = {**os.environ, "PYTHONPATH": str(args.src.resolve())}
    listed = commands()
    with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
        statuses = list(pool.map(lambda c: run(c, args.out, env), listed))
    (args.out / "exit_status.txt").write_text("".join(
        f"{status} {path}\n"
        for (path, _argv, _report), status in zip(listed, statuses)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
