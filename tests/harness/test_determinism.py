"""Seed plumbing and run-to-run determinism.

A crash finding is reproduced from (scheme, workload, seed, crash point)
and the replay oracle re-runs the workload from scratch, trusting it to hit
the same instants; that only works if (scheme, workload, seed) fully
determines the event trace.  These are the regression tests
for that property, plus the explicit-seed plumbing through the benchmark
runners (``run_copy``/``run_remove``).
"""

from repro.harness.recording import record_run
from repro.harness.runner import (
    run_copy,
    run_remove,
    standard_scheme_config,
    with_seed,
)
from repro.integrity.explorer import build_machine, build_workload
from repro.workloads.trees import TreeSpec, tree_layout

TINY_TREE = TreeSpec(files=6, total_bytes=48 * 1024, dirs=3)


def windows(scheme: str, workload: str, seed: int, ops: int):
    """The full media-write trace fingerprint of one recorded run."""
    machine = build_machine(scheme)
    recorded = record_run(machine,
                          build_workload(machine, workload, seed, ops))
    return recorded


class TestTraceDeterminism:
    def test_same_seed_same_event_trace(self):
        first = windows("softupdates", "churn", seed=3, ops=24)
        second = windows("softupdates", "churn", seed=3, ops=24)
        assert first.windows == second.windows
        assert first.workload_done == second.workload_done
        assert first.quiesce_time == second.quiesce_time
        assert first.requests_issued == second.requests_issued
        assert first.events_processed == second.events_processed

    def test_different_seed_different_trace(self):
        first = windows("softupdates", "churn", seed=3, ops=24)
        second = windows("softupdates", "churn", seed=4, ops=24)
        assert first.windows != second.windows

    def test_request_trace_matches_exactly(self):
        """Beyond write windows: every request's full timing history."""
        fingerprints = []
        for _ in range(2):
            machine = build_machine("chains")
            record_run(machine,
                       build_workload(machine, "microbench", 9, 12))
            fingerprints.append([
                (r.id, r.kind.name, r.lbn, r.nsectors, r.issue_time,
                 r.dispatch_time, r.complete_time)
                for r in machine.driver.trace])
        assert fingerprints[0] == fingerprints[1]
        assert fingerprints[0], "the run must actually reach the disk"


class TestWithSeed:
    def test_with_seed_overrides_only_the_seed(self):
        reseeded = with_seed(TINY_TREE, 77)
        assert reseeded.seed == 77
        assert (reseeded.files, reseeded.total_bytes, reseeded.dirs) == \
            (TINY_TREE.files, TINY_TREE.total_bytes, TINY_TREE.dirs)

    def test_with_seed_none_is_identity(self):
        assert with_seed(TINY_TREE, None) is TINY_TREE

    def test_seed_changes_tree_layout(self):
        assert tree_layout(with_seed(TINY_TREE, 1)) != \
            tree_layout(with_seed(TINY_TREE, 2))


class TestRunnerSeedPlumbing:
    def test_run_copy_same_seed_identical_measurements(self):
        results = [run_copy(standard_scheme_config("Conventional"),
                            users=1, tree=TINY_TREE, seed=5)
                   for _ in range(2)]
        first, second = results
        assert first.elapsed == second.elapsed
        assert first.disk_requests == second.disk_requests
        assert first.io_response_avg == second.io_response_avg
        assert first.user_elapsed == second.user_elapsed

    def test_run_copy_seed_changes_the_run(self):
        first = run_copy(standard_scheme_config("Conventional"),
                         users=1, tree=TINY_TREE, seed=5)
        second = run_copy(standard_scheme_config("Conventional"),
                          users=1, tree=TINY_TREE, seed=6)
        # different tree contents -> different I/O pattern
        assert (first.elapsed, first.disk_requests) != \
            (second.elapsed, second.disk_requests)

    def test_run_remove_same_seed_identical_measurements(self):
        results = [run_remove(standard_scheme_config("Soft Updates"),
                              users=1, tree=TINY_TREE, seed=5)
                   for _ in range(2)]
        first, second = results
        assert first.elapsed == second.elapsed
        assert first.disk_requests == second.disk_requests
        assert first.writes == second.writes
