"""The differential harness: the monitor vs the post-crash sweep.

**Agreement.** For every registered scheme x fault profile, one sweep
runs both verifiers on the same recording -- the monitor at every durable
commit end, the sweep at every sampled crash point -- and their
*verdicts* must agree: the monitor reports an
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

**One checker, one record, one walk.**  The monitor *is* fsck run on the
image the media log synthesizes at every durable commit end, so the two
verifiers share their predicates and their bytes by construction; in a
``--monitor`` sweep they share the walk itself: one synthesizer and one
auditor serve the crash points and the commits, and the merged walk
judges the commits exactly as the standalone monitor does.  A census
keeps it that way: ``integrity/monitor.py`` is a *caller* of fsck (no
second checker), and it neither copies the image, builds one nor watches
the drive (no second record of the media); under ``src/`` only the drive
and the recording runner name ``write_observers``, and only
``integrity/medialog.py`` constructs an ``ImageSynthesizer``.

Tier-1 runs budgeted sweeps; ``-m slow`` runs the full crash-point
sweeps the weekly CI job is about.
"""

import ast
import pathlib

import pytest

from repro.harness.recording import record_run
from repro.integrity import medialog, monitor as monitor_module
from repro.integrity.explorer import build_machine, build_workload, explore
from repro.integrity.fsck import Auditor
from repro.integrity.monitor import RULES, commits, monitor_violations
from repro.ordering.registry import REGISTRY
from repro.ordering.shims import SHIMS

#: every registered scheme, NVRAM included (its mirror is part of every
#: synthesized image); derived from the registry so a newly registered
#: scheme is under differential test automatically
SCHEMES = list(REGISTRY)
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
    return explore(scheme, workload, seed=seed,
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
    @pytest.mark.parametrize("scheme", SCHEMES)
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


class TestOnlineEqualsPostCrash:
    """The monitor's image at a commit end *is* the sweep's image at that
    instant (both are ``ImageSynthesizer.image_at``), so what is left to
    hold is the diff's behaviour and the census."""

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
        assert not {name for name in imported if name.startswith("repro.fs")}
        for name in ("inode_claim_ops", "iter_records", "Dinode", "CgView"):
            assert name not in source, name

    def test_the_media_log_is_the_only_record_of_the_media(self):
        source = pathlib.Path(monitor_module.__file__).read_text()
        for name in ("snapshot(", "write_partial(", "write_observers"):
            assert name not in source, name
        src = pathlib.Path(monitor_module.__file__).parents[2]
        naming = sorted(str(path.relative_to(src / "repro"))
                        for path in src.rglob("*.py")
                        if "write_observers" in path.read_text())
        assert naming == ["disk/drive.py", "harness/recording.py"]

    def test_only_the_media_log_builds_an_image_synthesizer(self):
        source = pathlib.Path(monitor_module.__file__).read_text()
        assert "ImageSynthesizer" not in source
        src = pathlib.Path(monitor_module.__file__).parents[2]
        building = sorted(
            str(path.relative_to(src / "repro"))
            for path in src.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "ImageSynthesizer")
        assert building == ["integrity/medialog.py"]

    @pytest.mark.parametrize("scheme, workload, profile", [
        ("journal", "microbench", None),      # the checkpoint rule
        ("nvram", "churn", None),             # the mirror in the image
        ("shim-rule3", "remove", None),       # a firing rule
        ("softupdates", "microbench", "transient")])
    def test_the_merged_walk_equals_the_standalone_monitor(
            self, scheme, workload, profile):
        report = sweep(scheme, workload, profile)
        machine = build_machine(scheme, fault_profile=profile, fault_seed=3)
        recorded = record_run(machine,
                              build_workload(machine, workload, 0, None))
        assert report.monitor_violations == tuple(monitor_violations(
            recorded, machine.config.fs_geometry,
            machine.scheme.crash_guarantees))
        if scheme.startswith("shim"):
            assert report.monitor_violations

    @pytest.mark.parametrize("monitor", [False, True])
    def test_a_sweep_synthesizes_each_instant_once(
            self, monkeypatch, monitor):
        built, instants = [], []
        real_init = medialog.ImageSynthesizer.__init__
        real_image_at = medialog.ImageSynthesizer.image_at
        real_auditor = Auditor.__init__
        monkeypatch.setattr(medialog.ImageSynthesizer, "__init__",
                            lambda synth, *args: (built.append("synth"),
                                                  real_init(synth, *args))[1])
        monkeypatch.setattr(medialog.ImageSynthesizer, "image_at",
                            lambda synth, at: (instants.append(at),
                                               real_image_at(synth, at))[1])
        monkeypatch.setattr(Auditor, "__init__",
                            lambda auditor, *args: (built.append("auditor"),
                                                    real_auditor(auditor,
                                                                 *args))[1])
        report = explore("softupdates", "microbench", max_points=None,
                         monitor=monitor, verify_repair=True)
        # one synthesizer, the crash-image auditor and the repair auditor
        assert sorted(built) == ["auditor", "auditor", "synth"]
        machine = build_machine("softupdates")
        recorded = record_run(machine,
                              build_workload(machine, "microbench", 0, None))
        want = {finding.crash_time for finding in report.findings}
        if monitor:
            want |= {when for when, _write in commits(recorded)}
        assert instants == sorted(want)


@pytest.mark.slow
class TestDifferentialFullSweeps:
    """Every crash boundary, every registered scheme x profile."""

    @pytest.mark.parametrize("profile", PROFILES,
                             ids=["none", "transient", "mixed"])
    @pytest.mark.parametrize("scheme", SCHEMES)
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

