"""A report's verdict is derived once, and a sweep's findings are still
what a fresh classification of every point says.

``classify_image`` reads the audit's verdict off the report
(``FsckReport.verdict``: one pass, kept on the report), so a point whose
image the auditor finds unchanged reuses the previous report's verdict.
The reference here is the classification that pass replaced: a one-shot
``fsck`` of each image, ``classify_report``, ``unexpected``, the
report's ``errors`` / ``warnings``, the stale-data walk and the repair
check, all from scratch at every point.
"""

import dataclasses
import importlib

import pytest

from repro.harness.recording import record_run
from repro.integrity.explorer import (
    build_machine,
    build_workload,
    enumerate_crash_points,
    explore,
)
from repro.integrity.findings import CrashFinding
from repro.integrity.fsck import Auditor, fsck, repair
from repro.integrity.invariants import (
    INVARIANTS,
    classify_report,
    finding,
    judge,
    unexpected,
)
from repro.integrity.medialog import ImageSynthesizer
from repro.integrity.secrets import find_secret_leaks
from repro.ordering.guarantees import CrashGuarantees

#: the module (the package exports its ``fsck`` function under that name)
fsck_module = importlib.import_module("repro.integrity.fsck")

OPS = 12
POINTS = 80


def fresh_finding(image, geometry, secrets, verify_repair, guarantees,
                  point):
    report = fsck(image, geometry)
    leaks = find_secret_leaks(image, geometry, report) if secrets else []
    violations = classify_report(report, leaks)
    if verify_repair and not any(v.is_corruption for v in violations):
        residue = classify_report(repair(image.snapshot(), report,
                                         geometry))
        if residue:
            violations.append(finding(
                "unrepairable", f"repair left {len(residue)} findings: "
                                f"{residue[0].message}"))
    return CrashFinding(
        index=point.index, crash_time=point.time, label=point.label,
        errors=len(report.errors), warnings=len(report.warnings),
        violations=tuple(violations),
        unexpected=tuple(unexpected(violations, guarantees)))


def fresh_findings(scheme, workload, secrets, verify_repair):
    machine = build_machine(scheme, secrets=secrets)
    recorded = record_run(machine, build_workload(machine, workload, 0, OPS))
    points = enumerate_crash_points(recorded, 2, POINTS, sample_seed=0)
    synthesizer = ImageSynthesizer(recorded.base_image, recorded.media_log)
    geometry = machine.config.fs_geometry
    findings = [fresh_finding(synthesizer.image_at(point.time), geometry,
                              secrets, verify_repair,
                              machine.scheme.crash_guarantees, point)
                for point in sorted(points, key=lambda p: (p.time, p.index))]
    return sorted(findings, key=lambda f: f.index)


MODES = {"plain": {}, "secrets": {"secrets": True},
         "verify_repair": {"verify_repair": True}}


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("scheme, workload", [
    ("noorder", "microbench"), ("softupdates", "churn"),
    ("journal", "microbench"), ("shim-rule1", "remove")])
def test_sweep_findings_equal_a_fresh_classification(scheme, workload, mode):
    options = MODES[mode]
    report = explore(scheme, workload, seed=0, ops=OPS, max_points=POINTS,
                     **options)
    expected = fresh_findings(scheme, workload,
                              options.get("secrets", False),
                              options.get("verify_repair", False))
    assert report.findings == expected
    assert any(f.violations for f in expected), "a vacuous comparison"


@pytest.mark.parametrize("verify_repair", [False, True])
def test_a_reused_report_is_classified_once(monkeypatch, verify_repair):
    judged = []
    audited = []  # held, so no two reports share an id

    def counting_judge(findings, guarantees):
        judged.append(findings)
        return judge(findings, guarantees)

    original_audit = Auditor.audit

    def recording_audit(self, image, changed=None):
        report = original_audit(self, image, changed)
        audited.append(report)
        return report

    monkeypatch.setattr(fsck_module, "judge", counting_judge)
    monkeypatch.setattr(Auditor, "audit", recording_audit)
    explore("softupdates", "microbench", seed=0, max_points=120,
            verify_repair=verify_repair)
    distinct = len({id(report) for report in audited})
    assert len(judged) == distinct < len(audited)


def test_judge_is_classify_report_and_unexpected_in_one_pass():
    findings = [finding(inv.key, f"{inv.key} {n}")
                for n in range(3) for inv in INVARIANTS]
    guarantees = CrashGuarantees(allows_leaks=False, allows_stale_data=False)
    report = fsck_module.FsckReport(findings=findings)
    verdict = report.verdict(guarantees)
    violations = classify_report(report)
    assert verdict.violations == tuple(violations)
    assert verdict.unexpected == tuple(unexpected(violations, guarantees))
    assert (verdict.errors, verdict.warnings) == (len(report.errors),
                                                  len(report.warnings))
    assert report.verdict(guarantees) is verdict
    assert report.verdict(dataclasses.replace(guarantees)) is not verdict
    with pytest.raises(dataclasses.FrozenInstanceError):
        verdict.errors = 0
