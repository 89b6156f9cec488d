"""Crash-exploration throughput: media-log synthesis vs the replay oracle.

Not a paper table -- this grid checks the point of the synthesis pipeline:
verifying a crash point costs O(sector application + fsck) instead of
O(full prefix replay), with findings equal to the replay oracle's.  Each
cell runs one serial sweep (the grid itself provides the parallelism).
The emitted table is host wall clock, so it is gitignored; the sweep's
measured cost is ``bench/``'s ``crash_sweep`` workload.
"""

from repro.harness.report import format_table

from benchmarks.conftest import emit, run_grid
from repro.integrity.explorer import explore

SCHEMES = ["noorder", "conventional", "softupdates"]
MODES = ["synthesize", "replay"]


def test_explorer_grid(once):
    def cell(scheme, mode):
        def run():
            return explore(scheme, "microbench", seed=0, jobs=1,
                           max_points=120,
                           synthesize=(mode == "synthesize"))
        return (scheme, mode), run

    def experiment():
        cells = [cell(scheme, mode)
                 for scheme in SCHEMES for mode in MODES]
        return run_grid("explorer", cells)

    results = once(experiment)
    rows = []
    for (scheme, mode), report in results.items():
        rows.append([scheme, mode, report.points, report.enumerated_points,
                     report.replays, round(report.record_wall_seconds, 3),
                     round(report.verify_wall_seconds, 3),
                     round(report.points_per_second, 1)])
    emit("explorer_grid", format_table(
        "Crash exploration: synthesis vs replay oracle "
        "(host wall clock -- varies run to run)",
        ["Scheme", "Mode", "Points", "Enumerated", "Replays",
         "Record (s)", "Verify (s)", "Points/s"], rows))

    for scheme in SCHEMES:
        synth = results[(scheme, "synthesize")]
        oracle = results[(scheme, "replay")]
        # synthesis does zero post-recording simulation ...
        assert synth.mode == "synthesize" and synth.replays == 0
        assert oracle.replays == oracle.points
        # ... yet reproduces the oracle's findings exactly ...
        assert synth.findings == oracle.findings
        # ... and never verifies slower than one replay per point
        assert synth.verify_wall_seconds <= oracle.verify_wall_seconds
