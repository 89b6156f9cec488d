"""fsck's decoding work, pinned as call counts.

A from-scratch check used to probe every bitmap bit (three Python calls
each) and unpack every inode slot, free ones included.  It now reads each
bitmap as one int and unpacks only allocated slots; a per-bit or per-slot
loop creeping back in fails here rather than at the next benchmark run.

Across audits, the same for dinodes: a sweep decodes a dinode when its
record changed, not at every crash point.

One level up, the same for whole audits: a crash point is audited once,
and neither the stale-data walk nor repair audits it again to learn what
that audit already knew (only ``_audit`` builds a checker); the repaired
images are re-audited through one more Auditor, not one cold fsck each.
And an audit re-derives only what its reads changed: a point whose
audited bytes match the previous point's keeps that report without a
replay, and a replay builds a finding only when what it says changed.
"""

import importlib
import sys
from collections import Counter

import pytest

from repro.fs.alloc import CgView
from repro.fs.layout import Dinode
from repro.harness.recording import record_run
from repro.integrity import explorer as explorer_module, fsck
from repro.integrity.explorer import (
    _verify,
    build_machine,
    build_workload,
    enumerate_crash_points,
    explore,
)
from repro.integrity.medialog import ImageSynthesizer


def test_one_fsck_probes_no_bit_and_unpacks_only_allocated_slots(monkeypatch):
    machine = build_machine("softupdates")
    recorded = record_run(machine,
                          build_workload(machine, "microbench", 0, 24),
                          capture_media=True)
    # a crash halfway through: files, stale bitmap bits and leaks
    points = enumerate_crash_points(recorded)
    image = ImageSynthesizer(recorded.base_image, recorded.media_log) \
        .image_at(points[len(points) // 2].time)

    calls = {"bit": 0, "unpack": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(CgView, "_get", counted("bit", CgView._get))
    monkeypatch.setattr(Dinode, "unpack",
                        counted("unpack", Dinode.unpack))
    report = fsck(image, machine.config.fs_geometry)

    assert len(report.inodes) > 5 and report.warnings, \
        "the image must give the checker something to decode"
    assert calls["bit"] == 0
    assert calls["unpack"] <= len(report.inodes) + 1


def test_a_sweep_decodes_only_the_dinodes_its_writes_changed(monkeypatch):
    # consecutive crash points differ by one media write: a sweep audited
    # through one auditor unpacks a dinode again only when its record
    # changed, where a from-scratch fsck per point unpacks every allocated
    # dinode at every point
    machine = build_machine("softupdates")
    recorded = record_run(machine,
                          build_workload(machine, "microbench", 0, 24),
                          capture_media=True)
    points = enumerate_crash_points(recorded)
    geometry = machine.config.fs_geometry
    synthesizer = ImageSynthesizer(recorded.base_image, recorded.media_log)
    per_point = sum(len(fsck(synthesizer.image_at(point.time),
                             geometry).inodes) for point in points)

    unpacked = []
    real = Dinode.unpack.__func__
    monkeypatch.setattr(Dinode, "unpack", classmethod(
        lambda cls, raw: (unpacked.append(1), real(cls, raw))[1]))
    findings, _ = _verify(recorded.base_image, recorded.media_log, geometry,
                          False, False, machine.scheme.crash_guarantees,
                          points, ())

    assert len(findings) == len(points) > 50
    assert 0 < len(unpacked) <= per_point // 2, (len(unpacked), per_point)


class _AuditCensus:
    """An explore() sweep's audits, counted per Auditor, split into the
    sweep's own ("sweep") and the re-audits of repaired images
    ("repair"); the checkers those audits built (replays); and the inode
    scans repair() makes itself, outside its re-audit."""

    def __init__(self, monkeypatch):
        fsck_module = importlib.import_module("repro.integrity.fsck")
        self.audits = {"sweep": Counter(), "repair": Counter()}
        self.replays = Counter()
        self.repairs = 0
        self.repair_scans = 0
        #: the innermost call under way: "fixing" (repair() itself), an
        #: audit's role, or None
        self._inside = [None]
        real_audit = fsck_module.Auditor.audit
        real_init = fsck_module._Checker.__init__
        real_scan = fsck_module._Checker.scan_inodes
        real_repair = explorer_module.repair

        def audit(auditor, image, changed=None):
            role = "repair" if self._inside[-1] == "fixing" else "sweep"
            self.audits[role][auditor] += 1
            self._inside.append(role)
            try:
                return real_audit(auditor, image, changed)
            finally:
                self._inside.pop()

        def init(checker, *args, **kwargs):
            if self._inside[-1] in self.audits:
                self.replays[self._inside[-1]] += 1
            real_init(checker, *args, **kwargs)

        def scan_inodes(checker):
            if self._inside[-1] == "fixing":
                self.repair_scans += 1
            return real_scan(checker)

        def repair(*args):
            self.repairs += 1
            self._inside.append("fixing")
            try:
                return real_repair(*args)
            finally:
                self._inside.pop()

        monkeypatch.setattr(fsck_module.Auditor, "audit", audit)
        monkeypatch.setattr(fsck_module._Checker, "__init__", init)
        monkeypatch.setattr(fsck_module._Checker, "scan_inodes", scan_inodes)
        monkeypatch.setattr(explorer_module, "repair", repair)


@pytest.mark.parametrize("options,repairs_per_point", [
    ({"verify_repair": True}, 1),
    # the stale-data walk reads the audit's inode table
    ({"secrets": True}, 0),
    ({"secrets": True, "verify_repair": True}, 1),
], ids=["verify-repair", "secrets", "both"])
def test_inode_scans_per_crash_point(monkeypatch, options, repairs_per_point):
    # exactly one audit per point, through the sweep's one Auditor, whether
    # or not it replays; and per repair-verified point one re-audit of the
    # result through the sweep's one repair Auditor -- repair acts on the
    # point's audit and scans no inode itself
    census = _AuditCensus(monkeypatch)
    # Soft Updates never corrupts, so every point is repair-verified
    report = explore("softupdates", "churn", max_points=120, **options)
    assert report.points > 50 and not report.corruption_points
    sweep, repairs = census.audits["sweep"], census.audits["repair"]
    assert list(sweep.values()) == [report.points]
    assert list(repairs.values()) == [report.points] * repairs_per_point
    assert not sweep.keys() & repairs.keys()
    assert census.repairs == repairs_per_point * report.points
    assert census.repair_scans == 0


def test_only_an_audit_builds_a_checker(monkeypatch):
    # a _Checker is built by _audit alone, for the sweep's audits and
    # repair's re-audits; repair, the stale-data walk and the monitor read
    # the reports they are handed
    fsck_module = importlib.import_module("repro.integrity.fsck")
    callers = Counter()
    real_init = fsck_module._Checker.__init__

    def init(checker, *args, **kwargs):
        callers[sys._getframe(1).f_code.co_name] += 1
        real_init(checker, *args, **kwargs)

    monkeypatch.setattr(fsck_module._Checker, "__init__", init)
    report = explore("softupdates", "churn", max_points=60, secrets=True,
                     verify_repair=True, monitor=True)
    assert report.points == 60
    assert list(callers) == ["_audit"] and callers["_audit"] > 1


def test_repaired_images_are_audited_incrementally(monkeypatch):
    # the seed-0 Soft Updates churn sweep: 86 crash points, each repaired
    # and re-audited.  A cold fsck of each repaired image replays 86
    # times; the sweep's repair Auditor replays 3 times (repair leaves
    # most points' images holding the same bytes wherever fsck reads), and
    # the ceiling is that count + 10 %.
    census = _AuditCensus(monkeypatch)
    report = explore("softupdates", "churn", verify_repair=True)
    assert report.points == census.repairs == 86
    assert list(census.audits["repair"].values()) == [86]
    assert 0 < census.replays["repair"] <= 3, census.replays


def test_a_sweep_replays_and_builds_findings_only_where_its_reads_moved(
        monkeypatch):
    # the seed-0 Soft Updates microbench sweep: 80 crash points.  One-shot
    # audits replay 80 times and build 1205 findings.  Reusing the report
    # of a point whose reads are unchanged, and each finding whose inputs
    # are unchanged, the sweep's auditor replays 10 times and builds 59;
    # the ceilings are those counts + 10 %.
    fsck_module = importlib.import_module("repro.integrity.fsck")
    replays, built = [], []
    real_init = fsck_module._Checker.__init__
    real_finding = fsck_module.finding

    def init(self, *args, **kwargs):
        replays.append(1)
        real_init(self, *args, **kwargs)

    def counted_finding(*args, **kwargs):
        built.append(1)
        return real_finding(*args, **kwargs)

    monkeypatch.setattr(fsck_module._Checker, "__init__", init)
    monkeypatch.setattr(fsck_module, "finding", counted_finding)
    report = explore("softupdates", "microbench")
    assert report.points == 80 and report.findings
    assert 0 < len(replays) <= 11, len(replays)
    assert 0 < len(built) <= 64, len(built)
