"""Report-driven repair vs the scan-based reference: the same bytes.

:func:`repro.integrity.fsck.repair` acts on the audit it follows: the
inodes, references, log scan and claimed bits are the report's, and only
the orphans' claim walks read the image.  The repair it replaced decoded
the image again and scanned the log again
(``tests/integrity/reference_repair.py``).  Here every point a sweep
repairs is also repaired by the reference, on a copy of the same image,
and the two must leave the same :meth:`SectorStore.digest`.

Tier-1 holds three ``--verify-repair`` sweeps at the default budget; ``-m
slow`` the 40 sweeps of ``benchmarks/corpus.py`` (every scheme x
workload, ``--monitor --secrets --verify-repair``) and its transient-fault
sweep, plus every corrupt No Order and ``shim-rule1`` image of those
sweeps, repaired although the explorer never repairs an image with
errors.  What preen mode would not fix -- a fragment claimed twice, a
missing root -- is a ``ValueError`` instead; No Order's ``reuse`` sweep
holds such images (``test_fsck_fixtures.py`` holds a missing root).
"""

import pytest

from repro.fs.layout import ROOT_INO
from repro.harness.recording import record_run
from repro.integrity import explorer as explorer_module
from repro.integrity.explorer import (
    SCHEMES,
    WORKLOADS,
    build_machine,
    build_workload,
    enumerate_crash_points,
    explore,
)
from repro.integrity.fsck import Auditor, fsck, repair
from repro.integrity.medialog import ImageSynthesizer
from tests.integrity.reference_repair import reference_repair

#: the schemes whose corrupt images are repaired too
CORRUPT_REPAIRED = ("noorder", "shim-rule1")


def refused(report) -> bool:
    """Whether repair refuses the image *report* audits."""
    return ROOT_INO not in report.inodes or any(
        found.key == "double-alloc" for found in report.findings)


class _Twins:
    """Every repair a sweep makes, made again by the reference on a copy
    of its image; with *corrupt*, each image with errors is repaired both
    ways too, or refused.  Counts the images compared and refused."""

    def __init__(self, monkeypatch, corrupt: bool = False):
        self.repaired = self.corrupt = self.refused = 0
        #: the reference's re-audits (their reports are not compared)
        self.auditor = None
        self.repair = explorer_module.repair
        real_classify = explorer_module.classify_image

        def twin_repair(image, report, geometry, auditor):
            self.repaired += 1
            return self.compare(image, report, geometry, auditor)

        def classify(image, report, geometry, secrets, repairs, guarantees,
                     point):
            if corrupt and refused(report):
                self.refused += 1
                with pytest.raises(ValueError):
                    self.repair(image.snapshot(), report, geometry)
            elif corrupt and report.errors:
                self.corrupt += 1
                self.compare(image.snapshot(), report, geometry, None)
            return real_classify(image, report, geometry, secrets, repairs,
                                 guarantees, point)

        monkeypatch.setattr(explorer_module, "repair", twin_repair)
        monkeypatch.setattr(explorer_module, "classify_image", classify)

    def compare(self, image, report, geometry, auditor):
        if self.auditor is None:
            self.auditor = Auditor(geometry)
        expected = image.snapshot()
        reference_repair(expected, geometry, self.auditor)
        after = self.repair(image, report, geometry, auditor or self.auditor)
        assert image.digest() == expected.digest()
        return after


@pytest.mark.parametrize("scheme,workload", [
    ("softupdates", "churn"), ("journal", "remove"), ("nvram", "churn")])
def test_repaired_images_match_the_reference(monkeypatch, scheme, workload):
    twins = _Twins(monkeypatch)
    report = explore(scheme, workload, verify_repair=True)
    # a safe scheme's every point is error-free, so every point repairs
    assert twins.repaired == report.points > 50


@pytest.mark.slow
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_corpus_sweep_repairs_match_the_reference(monkeypatch, scheme,
                                                  workload):
    twins = _Twins(monkeypatch, corrupt=scheme in CORRUPT_REPAIRED)
    report = explore(scheme, workload, monitor=True, secrets=True,
                     verify_repair=True)
    corrupt = sum(1 for found in report.findings if found.errors)
    assert twins.repaired == report.points - corrupt > 0
    if scheme in CORRUPT_REPAIRED:
        assert twins.corrupt + twins.refused == corrupt


@pytest.mark.slow
def test_transient_sweep_repairs_match_the_reference(monkeypatch):
    twins = _Twins(monkeypatch)
    report = explore("softupdates", "microbench", monitor=True, secrets=True,
                     verify_repair=True, fault_profile="transient",
                     fault_seed=3)
    assert twins.repaired == report.points > 50


def test_a_fragment_claimed_twice_is_refused():
    # seed-0 shim-rule2 reuse, unbudgeted: the rule-2 breach leaves
    # fragments 2160-2165 claimed by inodes 17 and 270; which keeps them
    # is a choice preen mode does not make
    machine = build_machine("shim-rule2")
    recorded = record_run(machine, build_workload(machine, "reuse", 0, None))
    (point,) = [p for p in enumerate_crash_points(recorded, 2, None)
                if p.label == "write 119 (lbn 48+16) after 5/16 sectors"]
    image = ImageSynthesizer(recorded.base_image,
                             recorded.media_log).image_at(point.time)
    geometry = machine.config.fs_geometry
    report = fsck(image, geometry)
    assert ("fragment 2160 claimed by both inode 17 and inode 270 (rule 2 "
            "violated)") in report.errors
    before = image.digest()
    with pytest.raises(ValueError, match="fragment 2160 claimed"):
        repair(image, report, geometry)
    assert image.digest() == before  # refused before it wrote anything
