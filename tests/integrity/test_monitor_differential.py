"""The differential harness: online monitor vs post-crash fsck.

The tentpole's proof obligation, in two halves:

**Agreement.** For every media-resident scheme x fault profile, one sweep
runs both verifiers on the same recording -- the monitor watching the
commit stream live, fsck auditing the synthesized image at every crash
point -- and their *verdicts* must agree: the monitor reports an
unexpected ordering violation if and only if the crash sweep finds a
point outside the scheme's declaration.  Safe schemes: both clean.
``noorder``: both fire, both within the declaration.  The rule-breaking
shims: both breach.

**Mutations.** Each shim scheme delays or forces exactly one ordered
write (the classic fault-injection mutant); the monitor must catch it at
commit time with the *correct rule* and a real window attribution, the
sweep's fsck must see the same corruption on the media, and the report
must refuse to exit 0.  A monitor that never fires, or fires with the
wrong rule, fails here -- this is the test of the tests.

**Same bytes, same messages.**  The monitor *is* fsck run at every durable
commit, so the two verifiers share their predicates by construction; what
is left to prove is that they see the same bytes.  The monitor's shadow is
built from the live commit stream, the sweep's images from the media log:
at every write-window end of a recording, the errors fsck newly reports
on the synthesized image must be exactly the messages the monitor fired
at that instant.  A census keeps ``integrity/monitor.py`` a *caller* of
fsck, so a second checker cannot grow back unnoticed.

Tier-1 runs budgeted sweeps; ``-m slow`` runs the full crash-point
sweeps the weekly CI job is about.
"""

import ast
import pathlib

import pytest

from repro.harness.recording import record_run
from repro.integrity import monitor as monitor_module
from repro.integrity.explorer import (
    WORKLOADS,
    build_machine,
    build_workload,
    explore,
)
from repro.integrity.fsck import fsck
from repro.integrity.medialog import ImageSynthesizer
from repro.integrity.monitor import RULES, OrderingMonitor
from repro.ordering.registry import REGISTRY
from repro.ordering.shims import SHIMS

#: every registered scheme whose crash state lives on the platters (nvram
#: keeps survivors in battery-backed memory); derived from the registry so
#: a newly registered scheme is under differential test automatically
MEDIA_SCHEMES = [slug for slug, info in REGISTRY.items()
                 if getattr(info.cls, "apply_to_image", None) is None]
#: fault dimension: perfect disk, recoverable transients, transients +
#: recoverable write-path defects (profiles with latent defects would
#: abort the victim workload itself and test the fault harness, not the
#: monitor)
PROFILES = [None, "transient", "mixed"]

#: shim scheme -> (workload that trips it, the rule it must be booked
#: under).  rule 1/3 breaches need durable entries being removed; rule 2
#: needs cross-inode fragment reuse, which only the ``reuse`` workload
#: forces deterministically (see repro.workloads.churn.reuse_churn).
MUTATIONS = [
    ("shim-rule1", "remove", "free-while-referenced"),
    ("shim-rule2", "reuse", "reuse-before-nullify"),
    ("shim-rule3", "remove", "dirent-uninitialized"),
]


def sweep(scheme, workload="microbench", profile=None, seed=0,
          max_points=40, **kwargs):
    return explore(scheme, workload, seed=seed, jobs=1,
                   max_points=max_points, monitor=True,
                   fault_profile=profile, fault_seed=3, **kwargs)


def assert_verdicts_agree(report):
    __tracebacks__ = False
    monitor_breach = bool(report.monitor_unexpected)
    fsck_breach = bool(report.unexpected_findings)
    assert monitor_breach == fsck_breach, (
        f"{report.scheme}/{report.fault_profile}: monitor says "
        f"{'breach' if monitor_breach else 'clean'} "
        f"({[v.format() for v in report.monitor_unexpected][:3]}), fsck "
        f"says {'breach' if fsck_breach else 'clean'} "
        f"({[(f.index, f.label) for f in report.unexpected_findings][:3]})")
    assert report.exit_status == (1 if monitor_breach else 0)


class TestDifferential:
    @pytest.mark.parametrize("profile", PROFILES,
                             ids=["none", "transient", "mixed"])
    @pytest.mark.parametrize("scheme", MEDIA_SCHEMES)
    def test_monitor_agrees_with_fsck(self, scheme, profile):
        report = sweep(scheme, profile=profile)
        assert report.monitor == "online"
        assert report.monitor_windows > 0
        assert_verdicts_agree(report)
        # the paper's schemes all honour their declarations: both clean
        assert not report.monitor_unexpected

    @pytest.mark.parametrize("scheme,workload,rule", MUTATIONS)
    def test_shims_breach_both_verifiers(self, scheme, workload, rule):
        report = sweep(scheme, workload=workload, max_points=60)
        assert report.monitor_unexpected and report.unexpected_findings
        assert_verdicts_agree(report)
        assert rule in {v.rule for v in report.monitor_unexpected}


class TestMutationAttribution:
    """The monitor's finding must carry enough to reproduce the breach."""

    @pytest.mark.parametrize("scheme,workload,rule", MUTATIONS)
    def test_rule_and_window_attribution(self, scheme, workload, rule):
        report = sweep(scheme, workload=workload, max_points=1)
        hits = [v for v in report.monitor_unexpected if v.rule == rule]
        assert hits, (
            f"{scheme} must be booked under {rule!r}, got "
            f"{sorted({v.rule for v in report.monitor_unexpected})}")
        for violation in hits:
            assert violation.rule in RULES
            # a real window inside the recorded run, not a placeholder
            assert violation.nsectors > 0
            assert violation.lbn >= 0
            assert 0.0 < violation.when <= report.quiesce_time
            assert not violation.expected
            assert "[UNEXPECTED]" in violation.format()
        assert report.exit_status == 1

    def test_shim_rules_cover_all_three_paper_rules(self):
        # the mutation set is complete: one shim per ordering rule
        assert {rule for _s, (_c, rule) in SHIMS.items()} == {
            "free-while-referenced", "reuse-before-nullify",
            "dirent-uninitialized"}
        assert [name for name, _w, _r in MUTATIONS] == sorted(SHIMS)


def assert_online_equals_post_crash(scheme, workload, profile, seed=0):
    """Walk the recording's write-window ends in order: what fsck newly
    reports on the image synthesized at each is what the monitor fired
    there, message for message.  (``journal-checkpoint-order`` is the one
    rule fsck cannot see -- it judges the recovered view.)"""
    # fault seed 4: no victim of the grids below dies of an injected EIO
    machine = build_machine(scheme, fault_profile=profile, fault_seed=4)
    geometry = machine.config.fs_geometry
    watcher = OrderingMonitor(geometry, machine.scheme.crash_guarantees)
    recorded = record_run(machine,
                          build_workload(machine, workload, seed, None),
                          capture_media=True, monitor=watcher)
    fired: dict[float, list[str]] = {}
    for violation in watcher.violations:
        if violation.rule != "journal-checkpoint-order":
            fired.setdefault(violation.when, []).append(violation.message)
    synthesizer = ImageSynthesizer(recorded.base_image, recorded.media_log)
    known = set(fsck(recorded.base_image, geometry).errors)
    assert not known and 0.0 not in fired  # mkfs leaves a clean image
    ends = [entry.end for entry in recorded.media_log.entries]
    assert ends == sorted(ends) and len(ends) == watcher.windows_seen > 0
    for end in ends:
        errors = fsck(synthesizer.image_at(end), geometry).errors
        fresh = [error for error in dict.fromkeys(errors)
                 if error not in known]
        assert fresh == fired.pop(end, []), (scheme, workload, profile, end)
        known = set(errors)
    assert not fired, "violations attributed to no write-window end"
    return watcher


#: every media-resident scheme on a workload that exercises it
CELLS = ([(scheme, "microbench") for scheme in MEDIA_SCHEMES]
         + [(scheme, workload) for scheme, workload, _rule in MUTATIONS])


class TestOnlineEqualsPostCrash:
    @pytest.mark.parametrize("profile", PROFILES,
                             ids=["none", "transient", "mixed"])
    @pytest.mark.parametrize("scheme,workload", CELLS)
    def test_new_fsck_errors_are_the_monitor_messages(self, scheme,
                                                      workload, profile):
        watcher = assert_online_equals_post_crash(scheme, workload, profile)
        # neither side of the equality is vacuous
        assert bool(watcher.violations) == (scheme == "noorder"
                                            or scheme in SHIMS)

    def test_persisting_breach_fires_once(self):
        # 'rm' -> inode 256 dangles from t=0.042 to the end of the run,
        # across rewrites of the directory's own inode block: one
        # condition, one report
        report = sweep("shim-rule3", workload="remove", max_points=1)
        hits = [v for v in report.monitor_violations
                if v.rule == "dirent-uninitialized"]
        assert len(hits) == 1, [v.format() for v in hits]

    def test_monitor_holds_no_checker_of_its_own(self):
        source = pathlib.Path(monitor_module.__file__).read_text()
        imported = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom):
                imported |= {f"{node.module}.{alias.name}"
                             for alias in node.names}
            elif isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
        assert {name for name in imported
                if name.startswith("repro.fs")} == {"repro.fs.journal"}
        for name in ("inode_claim_ops", "iter_records", "Dinode", "CgView"):
            assert name not in source, name


@pytest.mark.slow
class TestDifferentialFullSweeps:
    """Every crash boundary, every media-resident scheme x profile."""

    @pytest.mark.parametrize("profile", PROFILES,
                             ids=["none", "transient", "mixed"])
    @pytest.mark.parametrize("scheme", MEDIA_SCHEMES)
    def test_full_sweep_agreement(self, scheme, profile):
        report = sweep(scheme, profile=profile, max_points=None)
        assert report.points == report.enumerated_points > 0
        assert_verdicts_agree(report)
        assert not report.monitor_unexpected

    @pytest.mark.parametrize("scheme,workload,rule", MUTATIONS)
    def test_full_sweep_mutations(self, scheme, workload, rule):
        report = sweep(scheme, workload=workload, max_points=None)
        assert rule in {v.rule for v in report.monitor_unexpected}
        assert report.unexpected_findings
        assert report.exit_status == 1


    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("profile", PROFILES,
                             ids=["none", "transient", "mixed"])
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("scheme", MEDIA_SCHEMES + sorted(SHIMS))
    def test_online_equals_post_crash_everywhere(self, scheme, workload,
                                                 profile, seed):
        assert_online_equals_post_crash(scheme, workload, profile, seed)
