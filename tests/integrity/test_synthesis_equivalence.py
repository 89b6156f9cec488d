"""Synthesis-vs-replay equivalence: the proof behind the one verify path.

The media write-log pipeline claims the crash image synthesized for any
instant is *byte-identical* to the one obtained by replaying the whole
workload prefix and cutting the power (``replay_oracle.py``).  These tests
hold that claim down for every scheme the explorer knows -- the registry
and the rule-breaking shims -- with and without fault injection, at
start/complete boundaries AND mid-transfer partial-prefix instants:

* image digests match point for point (:meth:`SectorStore.digest`);
* the :class:`~repro.integrity.findings.CrashFinding` list ``explore()``
  reports equals the oracle's, point for point;
* under the standard benchmark configuration too (real CPU costs, a 2 MB
  cache), which the ``ext_recovery_cost`` table and the examples take
  their crash images from.

NVRAM is in: its battery-backed mirror is said once, as the media log's
``survivors`` stream (the scheme's ``on_survivor`` observer), and replayed
by the synthesizer; the oracle reads the live mirror instead.  It is
additionally held down under capacity pressure (forced destages,
stale-entry drops) and by a property test that the replayed stream *is*
the live mirror.
"""

import functools

import pytest

from repro.harness.recording import record_run
from repro.harness.runner import standard_scheme_config
from repro.integrity import explorer
from repro.integrity.explorer import (
    build_machine,
    build_workload,
    enumerate_crash_points,
    explore,
)
from repro.integrity.medialog import ImageSynthesizer
from repro.machine import Machine
from repro.ordering.nvram import NvramScheme
from repro.ordering.registry import REGISTRY
from tests.conftest import SMALL_GEOMETRY
from tests.integrity.replay_oracle import (
    replay_findings,
    replay_image,
    replay_machine,
    run_and_crash,
)
from tests.integrity.test_crash import churn_workload

#: everything ``--scheme`` accepts: the registry and the three mutants
SCHEMES = sorted(explorer.SCHEMES)
FAULTS = [None, "transient"]


def _record(scheme, fault_profile, workload="microbench", seed=0, ops=8):
    machine = build_machine(scheme, fault_profile=fault_profile,
                            fault_seed=3)
    recorded = record_run(machine,
                          build_workload(machine, workload, seed, ops),
                          capture_media=True)
    return machine, recorded


def _sample(points, budget=12):
    """A deterministic spread over the enumeration, partials included."""
    if len(points) <= budget:
        return points
    step = len(points) / budget
    picked = [points[int(i * step)] for i in range(budget)]
    partials = [p for p in points if "sectors" in p.label]
    if partials and not any("sectors" in p.label for p in picked):
        picked[-1] = partials[len(partials) // 2]
    return sorted(picked, key=lambda p: p.time)


def _assert_digests_match(scheme, fault_profile, workload, seed, ops,
                          budget):
    _machine, recorded = _record(scheme, fault_profile, workload, seed, ops)
    points = enumerate_crash_points(recorded, samples_per_write=2,
                                    max_points=None)
    sampled = _sample(points, budget)
    assert any("sectors" in p.label for p in sampled), \
        "sample must include mid-transfer partial prefixes"
    synthesizer = ImageSynthesizer(recorded.base_image, recorded.media_log)
    for point in sampled:
        oracle = replay_image(scheme, workload, seed, ops, point.time,
                              fault_profile=fault_profile, fault_seed=3)
        synthesized = synthesizer.image_at(point.time)
        assert synthesized.digest() == oracle.digest(), \
            (f"{scheme}/{fault_profile or 'none'}: image diverged at "
             f"point #{point.index} t={point.time:.6f} ({point.label})")
    return recorded, sampled


@pytest.mark.parametrize("fault_profile", FAULTS)
@pytest.mark.parametrize("scheme", SCHEMES)
class TestImagesByteIdentical:
    def test_digest_matches_replay_at_sampled_instants(self, scheme,
                                                       fault_profile):
        _assert_digests_match(scheme, fault_profile, "microbench", 0, 8,
                              budget=12)


@pytest.mark.parametrize("fault_profile", FAULTS)
@pytest.mark.parametrize("scheme", SCHEMES)
class TestFindingsIdentical:
    def test_reports_match_replay_oracle(self, scheme, fault_profile):
        kwargs = dict(workload="microbench", seed=0, ops=8, max_points=16,
                      fault_profile=fault_profile, fault_seed=3)
        report = explore(scheme, **kwargs)
        assert report.mode == "synthesize"
        assert report.findings == replay_findings(scheme, **kwargs)


def _standard_machine(slug):
    """The ``ext_recovery_cost`` table's machine: the scheme's standard
    configuration (real CPU costs) with a 2 MB cache on the small disk."""
    config = standard_scheme_config(REGISTRY[slug].display_name,
                                    cache_bytes=2 * 1024 * 1024)
    config.fs_geometry = SMALL_GEOMETRY
    machine = Machine(config)
    machine.format()
    return machine


@pytest.mark.parametrize("slug", list(REGISTRY))
def test_standard_config_images_match_the_live_machine(slug):
    """One recording stands in for a live crash at each of the table's
    instants, under the configuration the table and the examples run."""
    machine = _standard_machine(slug)
    recorded = record_run(machine, churn_workload(machine, 0, operations=40))
    synthesizer = ImageSynthesizer(recorded.base_image, recorded.media_log)
    for when in (2.2, 5.5, 7.0):
        live = _standard_machine(slug)
        oracle = run_and_crash(live, churn_workload(live, 0, operations=40),
                               crash_at=when)
        assert synthesizer.image_at(when).digest() == oracle.digest(), \
            f"{slug}: image diverged at t={when}"


@pytest.fixture(params=[8, 16, 24, 32, 64])
def tight_nvram(request, monkeypatch):
    """An under-provisioned NVRAM scheme under its own ``--scheme`` name.

    At 8 KB the mirror holds one block: every two-buffer operation
    (``link_added``: the inode block and the directory block, both held)
    overflows it for as long as it holds them.
    """
    name = f"nvram-{request.param}k"
    monkeypatch.setitem(
        explorer.SCHEMES, name,
        functools.partial(NvramScheme, capacity_bytes=request.param * 1024))
    return name


class TestNvramUnderCapacityPressure:
    def test_digests_match_while_the_mirror_evicts(self, tight_nvram):
        recorded, sampled = _assert_digests_match(
            tight_nvram, None, "churn", 0, 60, budget=32)
        assert len(sampled) >= 30
        drops = [entry for entry in recorded.media_log.survivors
                 if entry[2] is None]
        assert drops, "a tight mirror must drop entries as the disk catches up"

    def test_findings_match_replay_oracle(self, tight_nvram):
        kwargs = dict(workload="churn", seed=0, ops=60, max_points=24,
                      verify_repair=True)
        report = explore(tight_nvram, **kwargs)
        assert report.findings == replay_findings(tight_nvram, **kwargs)
        assert report.clean and not report.corruption_points


class TestSurvivorStream:
    @pytest.mark.parametrize("fault_profile", FAULTS)
    def test_replayed_stream_is_the_live_mirror(self, fault_profile):
        """Keys, bytes *and order*: the oracle writes the live mirror in
        insertion order, so the synthesizer's replay must match it."""
        machine, recorded = _record("nvram", fault_profile, "churn", 0, 40)
        spf = machine.cache.sectors_per_frag
        survivors = recorded.media_log.survivors
        assert survivors and survivors == sorted(survivors,
                                                 key=lambda e: e[0])
        points = enumerate_crash_points(recorded, samples_per_write=2,
                                        max_points=None)
        synthesizer = ImageSynthesizer(recorded.base_image,
                                       recorded.media_log)
        nonempty = 0
        for point in _sample(points, budget=16):
            live = replay_machine("nvram", "churn", 0, 40, point.time,
                                  fault_profile=fault_profile, fault_seed=3)
            expected = [(daddr * spf, data)
                        for daddr, data in live.scheme._mirror.items()]
            assert list(synthesizer.mirror_at(point.time).items()) \
                == expected, f"mirror diverged at point #{point.index}"
            nonempty += bool(expected)
        assert nonempty, "the sample must catch the mirror holding data"

    def test_media_only_schemes_log_no_survivors(self):
        _machine, recorded = _record("softupdates", None)
        assert recorded.media_log.survivors == []

    def test_observer_is_released_after_recording(self):
        machine, _recorded = _record("nvram", None)
        assert machine.scheme.on_survivor is None


class TestOneShotSynthesis:
    def test_matches_incremental_synthesizer(self):
        _machine, recorded = _record("conventional", None)
        points = enumerate_crash_points(recorded, samples_per_write=2,
                                        max_points=None)
        incremental = ImageSynthesizer(recorded.base_image,
                                       recorded.media_log)
        for point in _sample(points, budget=6):
            one_shot = ImageSynthesizer(
                recorded.base_image, recorded.media_log).image_at(point.time)
            assert one_shot.digest() == \
                incremental.image_at(point.time).digest()

    def test_transient_prefix_is_revoked_at_completion(self):
        # a transient window's sectors are visible under the head
        # mid-transfer but must vanish from the synthesized image once the
        # window retires (durable == 0)
        _machine, recorded = _record("noorder", "transient", ops=16)
        log = recorded.media_log
        transient = [e for e in log.entries if e.durable == 0]
        assert transient, "transient profile must doom at least one write"
        entry = transient[0]
        mid = entry.transfer_start + 1.5 * entry.sector_period
        if entry.sectors_applied_by(mid) == 0:
            pytest.skip("window too short for a mid-transfer prefix")
        during = ImageSynthesizer(recorded.base_image, log).image_at(mid)
        after = ImageSynthesizer(recorded.base_image, log).image_at(entry.end)
        sector = during.read(entry.lbn, 1)
        assert sector == entry.data[0]  # the first logged sector
        assert after.read(entry.lbn, 1) != sector or \
            recorded.base_image.read(entry.lbn, 1) == sector
