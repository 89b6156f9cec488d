"""Shared helpers: machine factories and scheme parametrization."""

import pytest

from repro.costs import CostModel
from repro.fs.layout import FSGeometry
from repro.machine import Machine, MachineConfig
from repro.ordering import (
    ConventionalScheme,
    NoOrderScheme,
    SchedulerChainsScheme,
    SchedulerFlagScheme,
    SoftUpdatesScheme,
)

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


def pytest_collection_modifyitems(config, items):
    """Everything not explicitly marked slow is tier-1.

    Keeps ``pytest -m tier1`` meaningful without requiring every fast test
    to carry the marker by hand.
    """
    for item in items:
        if item.get_closest_marker("slow") is None:
            item.add_marker(pytest.mark.tier1)
