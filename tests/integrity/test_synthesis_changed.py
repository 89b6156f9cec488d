"""``ImageSynthesizer.changed`` covers every sector that changed.

An :class:`~repro.integrity.fsck.Auditor` fed ``changed`` re-reads only
the ranges it names and answers every other read from the previous audit,
so a sector that differs between two consecutive images but lies outside
``changed`` would be audited with stale bytes.  The claim checked here is
the soundness of that list, sector by sector (no digests): at every
consecutive pair of ``image_at`` results, every sector whose bytes differ
lies inside ``changed``.

The walks are the ones the sweep makes -- every enumerated crash point and
every durable commit, in time order, plus every store or drop of an NVRAM
mirror -- over recorded runs of every
registry scheme (NVRAM's mirror overlays included) and Soft Updates under
transient faults (revoked prefixes); tier-1 runs small microbench
recordings, ``-m slow`` every explorer workload at its default size.
Generated logs add the window shapes the simulator does not produce.
"""

import random

import pytest

from repro.harness.recording import record_run
from repro.integrity.explorer import (
    WORKLOADS,
    build_machine,
    build_workload,
    enumerate_crash_points,
)
from repro.integrity.medialog import ImageSynthesizer
from repro.integrity.monitor import commits
from repro.ordering.registry import REGISTRY
from tests.integrity.test_synthesis_properties import (
    query_instants,
    random_base,
    random_log,
    random_survivors,
)

#: sectors compared as one read before they are compared one by one
SPAN = 128


def _differing(before, after, end: int) -> list[int]:
    """Every sector below *end* whose bytes differ between two images."""
    differ = []
    for lbn in range(0, end, SPAN):
        count = min(SPAN, end - lbn)
        if before.read(lbn, count) != after.read(lbn, count):
            differ += [sector for sector in range(lbn, lbn + count)
                       if before.read(sector) != after.read(sector)]
    return differ


def _covered(changed) -> set[int]:
    return {sector for lbn, nsectors in changed
            for sector in range(lbn, lbn + nsectors)}


def assert_changed_is_sound(base, log, instants) -> int:
    """Walk *instants* through one synthesizer; returns how many images
    differed from the one before."""
    end = max([entry.lbn + entry.nsectors for entry in log.entries]
              + [lbn + len(data)  # one pooled sector each
                 for _when, lbn, data in log.survivors if data]
              + [lbn + 1 for lbn, _data in base.iter_nonzero()])
    synthesizer = ImageSynthesizer(base, log)
    before = None
    moved = 0
    for when in sorted(set(instants)):
        image = synthesizer.image_at(when)
        if before is None:
            assert synthesizer.changed is None  # no image to differ from
        else:
            differ = _differing(before, image, end)
            outside = set(differ) - _covered(synthesizer.changed)
            assert not outside, (when, sorted(outside)[:8])
            moved += bool(differ)
        before = image.snapshot()  # the shared store moves on in place
    return moved


def _assert_sound_sweep(scheme, workload, ops=None, fault_profile=None):
    machine = build_machine(scheme, fault_profile=fault_profile,
                            fault_seed=3)
    recorded = record_run(machine, build_workload(machine, workload, 0, ops),
                          capture_media=True)
    log = recorded.media_log
    instants = [point.time for point in enumerate_crash_points(
        recorded, samples_per_write=2)]
    instants += [when for when, _write in commits(recorded)]
    # and every store or drop of the mirror, where only the overlay moves
    instants += [when for when, _lbn, _data in log.survivors]
    assert assert_changed_is_sound(recorded.base_image, log, instants) > 1
    return log


@pytest.mark.parametrize("scheme", list(REGISTRY))
def test_changed_covers_every_differing_sector(scheme):
    log = _assert_sound_sweep(scheme, "microbench", ops=8)
    assert bool(log.survivors) == (scheme == "nvram")


def test_changed_covers_the_mirror_overlays():
    log = _assert_sound_sweep("nvram", "remove")
    # stores and drops: an overlay that leaves shows the platters again
    assert {data is None for _when, _lbn, data in log.survivors} == {
        True, False}


def test_changed_covers_revoked_transient_prefixes():
    log = _assert_sound_sweep("softupdates", "microbench", ops=8,
                              fault_profile="transient")
    # a pass whose sectors were revoked: shown mid-window, gone after
    assert any(entry.durable < entry.nsectors for entry in log.entries)


@pytest.mark.slow
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("scheme,fault_profile",
                         [(scheme, None) for scheme in REGISTRY]
                         + [("softupdates", "transient")])
def test_changed_is_sound_over_full_sweeps(scheme, fault_profile, workload):
    _assert_sound_sweep(scheme, workload, fault_profile=fault_profile)


@pytest.mark.parametrize("seed", range(10))
def test_changed_is_sound_over_generated_logs(seed):
    # torn, transient-revoked and successful windows, with a mirror
    # stream that re-stores, drops and overlaps its extents
    rng = random.Random(seed)
    base = random_base(rng)
    log = random_log(rng, windows=rng.randrange(5, 30))
    random_survivors(rng, log, events=rng.randrange(0, 40))
    instants = query_instants(rng, log) + [e[0] for e in log.survivors]
    assert assert_changed_is_sound(base, log, instants)
