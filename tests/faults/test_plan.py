"""Unit tests for the fault plan / injector primitives."""

import dataclasses

from repro.faults import (
    EIO,
    EXHAUSTED,
    NOSPARE,
    FaultKind,
    FaultPlan,
    PROFILES,
    is_retryable,
)


def any_faults(plan):
    """Whether *plan* sets any fault rate."""
    return any(rate for name, rate in dataclasses.asdict(plan).items()
               if name.endswith("_rate"))


def drain_draws(injector, count=200):
    """A fixed call sequence alternating writes and reads."""
    return [injector.draw(lbn=100 + 8 * i, nsectors=8, is_write=i % 2 == 0)
            for i in range(count)]


def test_default_plan_injects_nothing():
    plan = FaultPlan()
    assert not any_faults(plan)
    injector = plan.build()
    assert all(fault is None for fault in drain_draws(injector))
    assert injector.injected == 0 and injector.events == []


def test_same_seed_same_fault_sequence():
    plan = PROFILES["mixed"](7)
    a = drain_draws(plan.build())
    b = drain_draws(plan.build())
    assert a == b
    assert any(fault is not None for fault in a)


def test_different_seeds_diverge():
    a = drain_draws(PROFILES["mixed"](1).build())
    b = drain_draws(PROFILES["mixed"](2).build())
    assert a != b


def test_plan_is_frozen_and_picklable():
    import pickle

    plan = PROFILES["defects"](3)
    assert pickle.loads(pickle.dumps(plan)) == plan


def test_torn_write_applies_a_strict_prefix():
    injector = FaultPlan(seed=1, torn_write_rate=1.0).build()
    for _ in range(50):
        fault = injector.draw(lbn=0, nsectors=8, is_write=True)
        assert fault.kind is FaultKind.TORN
        assert 0 <= fault.sectors_applied < 8
    # a single-sector write cannot tear: nothing lands
    fault = injector.draw(lbn=0, nsectors=1, is_write=True)
    assert fault.sectors_applied == 0


def test_grown_defect_sticks_until_reassigned():
    injector = FaultPlan(seed=1, grown_defect_rate=1.0, spares=2).build()
    fault = injector.draw(lbn=64, nsectors=8, is_write=True)
    assert fault.kind is FaultKind.MEDIUM
    assert 64 <= fault.bad_lbn < 72
    assert fault.bad_lbn in injector.bad_sectors
    # every later touch of the range hits the same defect, no new draw
    again = injector.draw(lbn=64, nsectors=8, is_write=False)
    assert again.kind is FaultKind.MEDIUM and again.bad_lbn == fault.bad_lbn
    # REASSIGN BLOCKS heals the address and consumes a spare
    assert injector.reassign(fault.bad_lbn)
    assert fault.bad_lbn not in injector.bad_sectors
    assert injector.spares_left == 1
    assert fault.bad_lbn in injector.reassigned


def test_reassign_fails_when_spares_exhausted():
    injector = FaultPlan(seed=1, spares=1).build()
    assert injector.reassign(10)
    assert not injector.reassign(11)
    assert injector.spares_left == 0


def test_latent_defect_found_by_reads_only():
    injector = FaultPlan(seed=1, latent_defect_rate=1.0).build()
    assert injector.draw(lbn=0, nsectors=4, is_write=True) is None
    fault = injector.draw(lbn=0, nsectors=4, is_write=False)
    assert fault.kind is FaultKind.MEDIUM


def test_only_exhausted_is_retryable():
    assert is_retryable(EXHAUSTED)
    assert not is_retryable(EIO)
    assert not is_retryable(NOSPARE)
    assert not is_retryable(None)


def test_degradations_filters_internal_events():
    injector = FaultPlan().build()
    injector.log(0.0, "inject", "transient at 100")
    injector.log(0.1, "retry", "attempt 1")
    injector.log(0.2, "remap", "lbn 100")
    injector.log(0.3, "read_eio", "daddr 5")
    injector.log(0.4, "lost_write", "daddr 6")
    visible = injector.degradations()
    assert [event.kind for event in visible] == ["read_eio", "lost_write"]


def test_profiles_cover_the_documented_matrix():
    assert set(PROFILES) == {"transient", "defects", "mixed", "none"}
    assert not any_faults(PROFILES["none"](0))
    assert PROFILES["transient"](0).latent_defect_rate == 0.0
    assert PROFILES["mixed"](0).latent_defect_rate > 0.0
