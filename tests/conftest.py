"""Shared helpers: machine factories, scheme parametrization, and the
heap-path reference the engine's in-place rule is held to."""

from contextlib import contextmanager

import pytest

from repro.costs import CostModel
from repro.fs.directory import DirEntry, iter_records
from repro.fs.layout import FSGeometry
from repro.machine import Machine, MachineConfig
from repro.ordering import (
    ConventionalScheme,
    NoOrderScheme,
    SchedulerChainsScheme,
    SchedulerFlagScheme,
    SoftUpdatesScheme,
)
from repro.sim import Engine, Event, Timeout
from repro.sim.cpu import CPUSlice

#: a small file system: 2 cylinder groups, 256 inodes each, 2 MB data each
SMALL_GEOMETRY = FSGeometry(ipg=256, dfrags_per_cg=2048, ncg=2)

SCHEME_FACTORIES = {
    "noorder": NoOrderScheme,
    "conventional": ConventionalScheme,
    "flag": SchedulerFlagScheme,
    "chains": SchedulerChainsScheme,
    "softupdates": SoftUpdatesScheme,
}

SAFE_SCHEMES = ["conventional", "flag", "chains", "softupdates"]


def make_machine(scheme_name="noorder", geometry=SMALL_GEOMETRY,
                 cache_bytes=2 * 1024 * 1024, free_cpu=True, observe=False,
                 faults=None, **scheme_kwargs):
    """A formatted machine with the given scheme mounted."""
    scheme = SCHEME_FACTORIES[scheme_name](**scheme_kwargs)
    config = MachineConfig(
        scheme=scheme,
        fs_geometry=geometry,
        cache_bytes=cache_bytes,
        costs=CostModel(scale=0.0 if free_cpu else 1.0),
        observe=observe,
        faults=faults,
    )
    machine = Machine(config)
    machine.format()
    return machine


@pytest.fixture(params=list(SCHEME_FACTORIES))
def any_scheme_machine(request):
    return make_machine(request.param)


@pytest.fixture(params=SAFE_SCHEMES)
def safe_scheme_machine(request):
    return make_machine(request.param)


def run_user(machine, generator, name="user", max_events=5_000_000):
    """Run one simulated user to completion; returns its value."""
    return machine.engine.run_until(
        machine.engine.process(generator, name=name), max_events=max_events)


def _refuse_in_place(self, when, events=1):
    return False


def call_later(engine, delay, fn, *args):
    """Run ``fn(*args)`` after *delay* simulated seconds (no process)."""
    Timeout(engine, delay).callbacks.append(lambda _event: fn(*args))


def iter_entries(data, base_offset=0):
    """A directory block's records, as :class:`DirEntry` objects."""
    return (DirEntry(*record) for record in iter_records(data, base_offset))


@contextmanager
def heap_only():
    """Nothing runs in place: every wake-up is an event on the heap.

    The reference for the engine's in-place rule
    (``Engine._advance_in_place``): with the rule refused, every CPU
    charge, lock grant and drive hold schedules its wake-up and the
    dispatch loop pops it.  A run must observe the same either way.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Engine, "_advance_in_place", _refuse_in_place)
        yield


@contextmanager
def recording_dispatches():
    """Yield a list that gets ``(now, type(event))`` per dispatched event.

    Every dispatch calls ``Event._process`` once (``Process._process``
    reaches it through ``super()``) or, for a CPU slice, ``CPUSlice._process``
    (which does not reach it), so wrapping the two records the stream.
    """
    dispatched = []

    def recording(original):
        def recorded(event):
            dispatched.append((event.engine.now, type(event)))
            original(event)
        return recorded

    with pytest.MonkeyPatch.context() as patch:
        for cls in (Event, CPUSlice):
            patch.setattr(cls, "_process", recording(cls._process))
        yield dispatched


def pytest_collection_modifyitems(config, items):
    """Everything not explicitly marked slow is tier-1.

    Keeps ``pytest -m tier1`` meaningful without requiring every fast test
    to carry the marker by hand.
    """
    for item in items:
        if item.get_closest_marker("slow") is None:
            item.add_marker(pytest.mark.tier1)
