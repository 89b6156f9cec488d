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
* ``trace-copy-softupdates.stdout`` / ``.trace.json`` / ``.flame.txt`` --
  ``python -m repro.harness trace copy --scheme softupdates --scale
  0.03``, its stdout and the traced record it writes;
* ``exit_status.txt`` -- each command's exit status, one line per output.

Every command is a function of its arguments, so two checkouts whose
reports agree write identical directories: run this script against the
parent's ``src/`` and against this commit's, then ``diff -r`` the two.  A
change that means to move a report lists the moved paths in
``benchmarks/corpus_moves.txt``; CI skips every path the file lists and
fails when it lists one but the commit did not touch it, so a commit that
moves nothing empties the list.  Each command runs in a scratch working
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
#: where the traced copy cell writes its record, in the same directory
TRACE = "traces/copy-soft-updates"


def commands() -> list[tuple[str, list[str], dict]]:
    """``(output path, python arguments, {suffix: file it writes})`` in
    the corpus's fixed order; each file the command writes goes beside
    the output with the output's suffix replaced by *suffix*."""
    out = []
    for scheme in SCHEMES:
        for workload in WORKLOADS:
            argv = EXPLORER + ["--scheme", scheme, "--workload", workload]
            out.append((f"explorer/{scheme}-{workload}.txt",
                        argv + SWEEP, {}))
            out.append((f"explorer/{scheme}-{workload}.json",
                        argv + SWEEP + ["--json"], {}))
    argv = EXPLORER + ["--scheme", "softupdates", "--workload",
                       "microbench", *SWEEP, "--fault-profile", "transient",
                       "--fault-seed", "3"]
    name = "explorer/softupdates-microbench-transient"
    out.append((f"{name}.txt", argv, {}))
    out.append((f"{name}.json", argv + ["--json"], {}))
    for name, extra in (("faults", []), ("faults-monitor", ["--monitor"])):
        out.append((f"{name}.stdout",
                    ["-m", "repro.harness", "faults", "--seeds", "1,2",
                     "--ops", "40", "--out", FAULT_REPORT, *extra],
                    {".report.txt": FAULT_REPORT}))
    out.append(("harness-0.15.stdout", ["-m", "repro.harness", "0.15"],
                {}))
    out.append(("trace-copy-softupdates.stdout",
                ["-m", "repro.harness", "trace", "copy", "--scheme",
                 "softupdates", "--scale", "0.03", "--out", "traces"],
                {".trace.json": f"{TRACE}.trace.json",
                 ".flame.txt": f"{TRACE}.flame.txt"}))
    return out


def run(command, out: pathlib.Path, env: dict) -> int:
    """Run one command in a scratch directory; write what it produced."""
    path, argv, written = command
    target = out / path
    target.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as cwd:
        done = subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                              stdout=subprocess.PIPE, check=False)
        target.write_bytes(done.stdout)
        for suffix, name in written.items():
            produced = pathlib.Path(cwd, name)
            target.with_suffix(suffix).write_bytes(
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
        for (path, _argv, _written), status in zip(listed, statuses)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
