"""Ablation A1 (section 3.2): scheduler-chains deallocation approaches.

The paper compares two ways to keep freed blocks safe under chains: a
Part-NR-style *barrier* on the reset write (simple, but creates false
dependencies) versus *tracking* recently freed blocks so only their new
owners inherit the dependency.  "The less restrictive approach provides
superior performance (e.g., 16 percent for the 4-user remove benchmark)."

The win materializes when system activity presses on memory (the paper's
4-user remove dirtied ~37 MB against 44 MB of RAM): the barrier's falsely
held-back writes pin buffers and stall reclaim.  With an over-provisioned
cache the barrier can even look good -- it accidentally prioritizes reads,
the same effect as figure 2 -- so this ablation runs both regimes.
"""

from repro.costs import CostModel
from repro.harness.report import format_table
from repro.harness.runner import run_remove
from repro.machine import MachineConfig
from repro.ordering import SchedulerChainsScheme
from repro.workloads.trees import TreeSpec

from benchmarks.conftest import SCALE, emit, run_grid, scaled_cache


def chains_config(dealloc_barrier: bool, cache_bytes: int) -> MachineConfig:
    return MachineConfig(
        scheme=SchedulerChainsScheme(block_copy=True,
                                     dealloc_barrier=dealloc_barrier),
        costs=CostModel(), cache_bytes=cache_bytes)


def test_ablation_chains_dealloc(once):
    tree = TreeSpec().scaled(SCALE)
    pressured = max(384 * 1024, scaled_cache() // 8)
    roomy = scaled_cache()

    def cell(regime, cache, approach, barrier):
        def run():
            return run_remove(chains_config(barrier, cache), 4, tree)
        return (regime, approach), run

    def experiment():
        return run_grid(
            "ablation_chains_dealloc",
            [cell(regime, cache, approach, barrier)
             for regime, cache in (("pressured", pressured),
                                   ("roomy", roomy))
             for approach, barrier in (("barrier", True),
                                       ("tracking", False))])

    results = once(experiment)
    rows = [[regime, approach, r.elapsed, r.io_response_avg * 1000,
             r.disk_requests]
            for (regime, approach), r in results.items()]
    emit("ablation_chains_dealloc", format_table(
        f"Ablation A1: chains deallocation, barrier vs freed-block tracking "
        f"(4-user remove, scale={SCALE}; pressured={pressured // 1024} KB, "
        f"roomy={roomy // 1024} KB cache)",
        ["Memory regime", "Approach", "Elapsed (s)", "I/O Resp Avg (ms)",
         "Disk requests"], rows))

    # the paper's regime: under memory pressure, tracking clearly wins
    barrier = results[("pressured", "barrier")].elapsed
    tracking = results[("pressured", "tracking")].elapsed
    assert tracking < barrier * 0.95
    # and it needs fewer disk requests (no falsely forced rewrites)
    assert results[("pressured", "tracking")].disk_requests \
        <= results[("pressured", "barrier")].disk_requests
