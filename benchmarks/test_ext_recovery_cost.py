"""Extension (section 7): how much fsck repair work does a crash leave?

"each [scheme] requires assistance (provided by the fsck utility) when
recovering from system failure ... the file system can not be used during
this often time-consuming process."  The paper leaves fast recovery as
future work; this experiment quantifies the repair burden each scheme
leaves behind: the number of fsck-repairable inconsistencies (orphans,
stale bitmap bits, inflated link counts) across a sweep of crash instants.
Each (scheme, seed) runs once under recording; its crash images are
synthesized from the media log at each instant.
"""

from repro.harness.recording import record_run
from repro.harness.report import format_table
from repro.harness.runner import STANDARD_SCHEMES, standard_scheme_config
from repro.integrity import fsck, repair
from repro.integrity.medialog import ImageSynthesizer
from repro.machine import Machine

from benchmarks.conftest import emit, run_grid
from tests.conftest import SMALL_GEOMETRY
from tests.integrity.test_crash import churn_workload

#: include late instants so the delayed-write schemes' flushes are on disk
CRASH_TIMES = (2.2, 5.5, 7.0)
SEEDS = (0, 1)


def test_ext_recovery_cost(once):
    def cell(name):
        def run():
            warnings = errors = 0
            repaired_clean = 0
            trials = 0
            for seed in SEEDS:
                config = standard_scheme_config(
                    name, cache_bytes=2 * 1024 * 1024)
                config.fs_geometry = SMALL_GEOMETRY
                machine = Machine(config)
                machine.format()
                recorded = record_run(
                    machine, churn_workload(machine, seed, operations=40))
                synthesizer = ImageSynthesizer(recorded.base_image,
                                               recorded.media_log)
                for crash_at in CRASH_TIMES:
                    image = synthesizer.image_at(crash_at)
                    report = fsck(image, SMALL_GEOMETRY)
                    warnings += len(report.warnings)
                    errors += len(report.errors)
                    # image_at hands back the synthesizer's own store
                    after = repair(image.snapshot(), report,
                                   SMALL_GEOMETRY)
                    repaired_clean += int(after.clean
                                          and not after.warnings)
                    trials += 1
            return (errors, warnings / trials, repaired_clean, trials)
        return name, run

    def experiment():
        return run_grid("ext_recovery_cost",
                        [cell(name) for name in STANDARD_SCHEMES])

    results = once(experiment)
    rows = [[name, errors, avg_warnings, f"{clean}/{trials}"]
            for name, (errors, avg_warnings, clean, trials)
            in results.items()]
    emit("ext_recovery_cost", format_table(
        "Extension: fsck repair burden after crashes "
        f"({len(SEEDS) * len(CRASH_TIMES)} crash trials per scheme)",
        ["Scheme", "Integrity errors (total)", "Avg repairs needed",
         "Repaired to pristine"], rows))

    for name, (errors, _avg, clean, trials) in results.items():
        if name == "No Order":
            continue
        # the safe schemes never lose integrity, and repair always restores
        assert errors == 0, name
        assert clean == trials, name
