"""Table 3: the Andrew benchmark, five phases per scheme.

Paper findings asserted here: the metadata-intensive phases (1: mkdir,
2: copy) show the scheme differences; the read-only phases (3: stat,
4: read) are practically indistinguishable; the compile phase dominates the
total and improves only marginally for the non-conventional schemes.
"""

from repro.harness.report import format_table
from repro.harness.runner import (
    STANDARD_SCHEMES,
    build_machine,
    standard_scheme_config,
)
from repro.workloads.andrew import PHASE_NAMES, run_andrew

from benchmarks.conftest import SCALE, emit, run_grid

ITERATIONS = 3


def test_table3_andrew(once):
    def cell(name):
        def run():
            machine = build_machine(standard_scheme_config(
                name, alloc_init=(name == "Soft Updates")))
            return run_andrew(machine, iterations=ITERATIONS,
                              scale=max(SCALE, 0.3),
                              compile_scale=max(SCALE, 0.3))
        return name, run

    def experiment():
        return run_grid("table3_andrew",
                        [cell(name) for name in STANDARD_SCHEMES])

    results = once(experiment)
    rows = []
    for name, result in results.items():
        row = [name]
        for phase in PHASE_NAMES:
            mean, std = result.phases[phase]
            row.append(f"{mean:.2f} ({std:.2f})")
        total_mean, total_std = result.total
        row.append(f"{total_mean:.1f} ({total_std:.1f})")
        rows.append(row)
    emit("table3_andrew", format_table(
        f"Table 3: Andrew benchmark, seconds per phase, mean (std) of "
        f"{ITERATIONS} runs (scale={max(SCALE, 0.3)})",
        ["Ordering Scheme", "(1) MkDir", "(2) Copy", "(3) Stat",
         "(4) Read", "(5) Compile", "Total"], rows))

    def phase(name, p):
        return results[name].phases[p][0]

    # phase 1 (directory creation) shows the big conventional penalty
    assert phase("Conventional", "mkdir") > 1.5 * phase("Soft Updates",
                                                        "mkdir")
    # phase 2: the delayed-write schemes are fastest
    assert phase("Conventional", "copy") > phase("Soft Updates", "copy")
    # phases 3-4: read-only, practically indistinguishable (within 10%)
    for read_phase in ("stat", "read"):
        values = [phase(name, read_phase) for name in STANDARD_SCHEMES]
        assert max(values) <= min(values) * 1.10
    # the compile phase dominates the total for every scheme
    for name, result in results.items():
        assert result.phases["compile"][0] > 0.5 * result.total[0]
    # totals: conventional slowest of the paper's five (the Journaling row
    # is a post-1994 referee that commits per operation; it stays in the
    # table but the paper's claim is not about it), soft updates within a
    # few % of no order
    totals = {name: result.total[0] for name, result in results.items()}
    assert totals["Conventional"] == max(
        total for name, total in totals.items() if name != "Journaling")
    assert totals["Soft Updates"] <= totals["No Order"] * 1.05
