"""A finished machine frees itself by reference counting.

No component references the :class:`~repro.machine.Machine`, and what a
live run needs cyclically (idle daemons asleep on the event heap and in
the driver's wait queue, the scheme bound to its file system) is cut by
the machine's finalizer.  So dropping the last reference to a settled
machine frees its sector store, buffer cache and driver at once, with no
cyclic GC pass: every test here runs with the collector disabled.
"""

import gc
import weakref

import pytest

from repro.faults import FaultPlan
from repro.machine import Machine, MachineConfig
from repro.ordering.registry import REGISTRY
from repro.workloads.copybench import copy_tree_user, populate_sources
from repro.workloads.trees import TreeSpec

TREE = TreeSpec(files=6, total_bytes=30_000, dirs=2, seed=3)
USERS = 2
OPTIONS = {
    "plain": {},
    "observe": {"observe": True},
    "zero-faults": {"faults": FaultPlan()},
}


@pytest.fixture(autouse=True)
def no_cyclic_gc():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def config(slug: str, **options) -> MachineConfig:
    return MachineConfig(scheme=REGISTRY[slug].build(), **options)


def formatted(cfg: MachineConfig) -> Machine:
    machine = Machine(cfg)
    machine.format()
    return machine


def copy_and_settle(machine: Machine) -> list:
    """A small two-user tree copy, then a flush to quiescence."""
    populate_sources(machine, USERS, TREE)
    users = [machine.spawn(copy_tree_user(machine, user), name=f"user{user}")
             for user in range(USERS)]
    machine.run(*users)
    machine.sync_and_settle()
    return users


def outcome(machine: Machine, users: list) -> tuple:
    """What a run leaves: clock, event and request counts, user lifetimes
    and the disk image."""
    return (machine.engine.now, machine.engine.events_processed,
            machine.driver.requests_issued,
            [(user.started_at, user.finished_at) for user in users],
            machine.disk.storage.digest())


@pytest.mark.parametrize("options", OPTIONS.values(), ids=list(OPTIONS))
@pytest.mark.parametrize("slug", list(REGISTRY))
def test_dropped_machine_frees_at_once(slug, options):
    cfg = config(slug, **options)  # outlives the machine, scheme and all
    machine = formatted(cfg)
    users = copy_and_settle(machine)
    parts = [weakref.ref(part) for part in
             (machine.disk.storage, machine.cache, machine.driver)]
    del machine, users
    assert [part() for part in parts] == [None, None, None]
    assert cfg.scheme.fs is None


@pytest.mark.parametrize("slug", list(REGISTRY))
def test_reused_scheme_stays_with_the_later_machine(slug):
    cfg = config(slug)
    first = formatted(cfg)
    copy_and_settle(first)
    second = formatted(cfg)  # attaches the same scheme to its own fs
    store = weakref.ref(first.disk.storage)
    del first
    assert store() is None
    assert cfg.scheme.fs is second.fs
    reused = outcome(second, copy_and_settle(second))
    fresh = formatted(config(slug))
    assert reused == outcome(fresh, copy_and_settle(fresh))
