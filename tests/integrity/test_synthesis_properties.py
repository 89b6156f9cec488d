"""Property tests: ImageSynthesizer prefix arithmetic vs brute force.

The synthesizer earns its O(delta) cost with four pieces of arithmetic --
the retired-window cursor, the shared-image mutation for committed
prefixes, the throwaway snapshot for revocable transient prefixes, and the
survivor cursor that keeps an off-media (NVRAM) mirror beside the image.
These tests pit it against a deliberately dumb model: for every query
instant, start from the base image and lay down each window's surviving
sectors **one at a time** into a plain dict.  No cursor, no sharing, no
incrementality -- just the definition.  Random logs (stdlib ``random``,
pinned seeds) interleave successes, torn writes, and transient-revoked
passes; random query instants land before, inside, and after every
window.  Any divergence in any sector fails.

The logs are generated, not recorded -- the point is to explore window /
fault shapes the simulator happens not to produce today.  Equivalence
against *recorded* runs is tests/integrity/test_synthesis_equivalence.py.
"""

import random

import pytest

from repro.disk.drive import InFlightWrite
from repro.disk.geometry import DiskGeometry
from repro.disk.storage import SectorStore
from repro.integrity.medialog import ImageSynthesizer, MediaLog

SECTOR = 512
MAX_LBN = 96
GEOMETRY = DiskGeometry(cylinders=1, heads=1, sectors_per_track=MAX_LBN,
                        sector_size=SECTOR)


def record(log: MediaLog, lbn, data, start, period, end, durable) -> None:
    """Log a finished write, as the drive's observer list would."""
    log.record(InFlightWrite(
        lbn=lbn, data=data, nsectors=len(data) // SECTOR,
        transfer_start=start, sector_period=period, end=end,
        durable=durable))


def random_base(rng) -> SectorStore:
    base = SectorStore(GEOMETRY)
    for lbn in rng.sample(range(MAX_LBN), rng.randrange(4, 16)):
        base.write(lbn, rng.randbytes(SECTOR))
    return base


def random_log(rng, windows: int) -> MediaLog:
    """Disjoint, time-ordered windows with every fault shape mixed in."""
    log = MediaLog()
    clock = 0.0
    for _ in range(windows):
        nsectors = rng.randrange(1, 9)
        lbn = rng.randrange(0, MAX_LBN - nsectors)
        data = rng.randbytes(nsectors * SECTOR)
        period = rng.choice([0.0005, 0.001, 0.004])
        start = clock + rng.random() * 0.01
        shape = rng.random()
        if shape < 0.55:        # success: everything persists
            durable = nsectors
            end = start + nsectors * period
        elif shape < 0.8:       # torn: the transfer stops mid-window
            durable = rng.randrange(0, nsectors)
            end = start + (durable + 1) * period
        else:                   # transient: a full pass, then revoked
            durable = 0
            end = start + nsectors * period
        record(log, lbn, data, start, period, end, durable)
        clock = end
    return log


def brute_force_image(base: SectorStore, log: MediaLog,
                      when: float) -> dict[int, bytes]:
    """Sector-replay model: apply each window's surviving prefix, one
    sector at a time, from scratch.  The definition, with none of the
    synthesizer's shortcuts."""
    image = {lbn: base.read(lbn) for lbn in range(MAX_LBN)}
    for entry in sorted(log.entries, key=lambda e: e.transfer_start):
        if entry.end <= when:
            surviving = entry.durable
        else:
            surviving = entry.sectors_applied_by(when)
        for k in range(surviving):
            image[entry.lbn + k] = entry.data[k]  # the k-th logged sector
    return image


def random_survivors(rng, log: MediaLog, events: int) -> None:
    """A time-ordered store/drop stream over a few overlapping extents:
    re-stores, drops of absent keys, and stores whose sectors overlap a
    neighbour's (so the order the mirror is applied in shows)."""
    horizon = max(entry.end for entry in log.entries)
    keys = [(lbn, rng.randrange(1, 5))
            for lbn in rng.sample(range(MAX_LBN - 4), 6)]
    for when in sorted(rng.uniform(0.0, horizon) for _ in range(events)):
        lbn, nsectors = rng.choice(keys)
        data = None if rng.random() < 0.35 \
            else rng.randbytes(nsectors * SECTOR)
        log.survive(when, lbn, data)


def brute_force_overlay(image: dict, log: MediaLog, when: float) -> dict:
    """The mirror by definition: replay the whole stream into a list of
    (lbn, data) in store order, then lay it over the platters."""
    mirror: list = []
    for stamp, lbn, data in log.survivors:
        if stamp > when:
            break
        mirror = [held for held in mirror if held[0] != lbn]
        if data is not None:
            mirror.append((lbn, data))
    for lbn, sectors in mirror:
        for k, sector in enumerate(sectors):
            image[lbn + k] = sector
    return image


def store_sectors(store: SectorStore) -> dict[int, bytes]:
    return {lbn: store.read(lbn) for lbn in range(MAX_LBN)}


def query_instants(rng, log: MediaLog) -> list[float]:
    """Before, at, inside, and after every window -- plus random times."""
    instants = [0.0]
    for entry in log.entries:
        nsectors = len(entry.data)
        instants += [entry.transfer_start, entry.end,
                     entry.transfer_start + entry.sector_period * 0.5,
                     entry.transfer_start
                     + entry.sector_period * (nsectors - 0.5),
                     entry.end + 1e-6]
        instants.append(rng.uniform(entry.transfer_start, entry.end))
    instants.append(max(e.end for e in log.entries) + 1.0)
    return sorted(instants)


@pytest.mark.parametrize("seed", range(10))
def test_incremental_synthesis_matches_brute_force(seed):
    rng = random.Random(seed)
    base = random_base(rng)
    log = random_log(rng, windows=rng.randrange(5, 30))
    synth = ImageSynthesizer(base, log)
    for when in query_instants(rng, log):
        got = store_sectors(synth.image_at(when))
        want = brute_force_image(base, log, when)
        assert got == want, (
            f"seed {seed} t={when}: sectors "
            f"{sorted(l for l in want if got[l] != want[l])} diverge")


@pytest.mark.parametrize("seed", range(30, 40))
def test_survivor_overlay_matches_brute_force(seed):
    """Off-media survivors lie *over* the platters at every instant and
    never on them: a dropped entry shows the platter bytes again."""
    rng = random.Random(seed)
    base = random_base(rng)
    log = random_log(rng, windows=rng.randrange(5, 30))
    random_survivors(rng, log, events=rng.randrange(10, 60))
    instants = query_instants(rng, log) + [e[0] for e in log.survivors]
    synth = ImageSynthesizer(base, log)
    for when in sorted(instants):
        got = store_sectors(synth.image_at(when))
        want = brute_force_overlay(brute_force_image(base, log, when),
                                   log, when)
        assert got == want, (
            f"seed {seed} t={when}: sectors "
            f"{sorted(l for l in want if got[l] != want[l])} diverge")


@pytest.mark.parametrize("seed", range(10, 15))
def test_one_shot_synthesis_matches_brute_force(seed):
    # a fresh synthesizer per instant must agree with the model at
    # arbitrary (unsorted) instants
    rng = random.Random(seed)
    base = random_base(rng)
    log = random_log(rng, windows=rng.randrange(5, 20))
    instants = query_instants(rng, log)
    rng.shuffle(instants)
    for when in instants:
        got = store_sectors(ImageSynthesizer(base, log).image_at(when))
        assert got == brute_force_image(base, log, when), (seed, when)


@pytest.mark.parametrize("seed", [21, 22])
def test_transient_prefix_never_sticks_to_the_shared_image(seed):
    """A transient's mid-window pass is visible *at* that instant only;
    the next query past the window must show it revoked."""
    rng = random.Random(seed)
    base = random_base(rng)
    log = MediaLog()
    data = rng.randbytes(8 * SECTOR)
    lbn = 16
    # one transient window: full pass visible under the head, durable=0
    record(log, lbn, data, 1.0, 0.001, 1.008, 0)
    synth = ImageSynthesizer(base, log)

    mid = synth.image_at(1.0045)  # 4 sectors under the head
    assert mid.read(lbn, 4) == data[:4 * SECTOR]
    after = synth.image_at(2.0)   # window retired: revoked
    assert store_sectors(after) == store_sectors(base)


def test_backwards_queries_are_refused():
    rng = random.Random(99)
    base = random_base(rng)
    log = random_log(rng, windows=5)
    synth = ImageSynthesizer(base, log)
    synth.image_at(1.0)
    with pytest.raises(ValueError, match="time-sorted"):
        synth.image_at(0.5)


def test_base_image_is_never_mutated():
    rng = random.Random(7)
    base = random_base(rng)
    before = store_sectors(base)
    log = random_log(rng, windows=12)
    synth = ImageSynthesizer(base, log)
    for when in query_instants(rng, log):
        synth.image_at(when)
    assert store_sectors(base) == before
