"""Tests for the Machine assembly and its setup conveniences."""

import pytest

from benchmarks.test_fig1_flag_semantics import VARIANTS as FIG1
from benchmarks.test_fig2_flag_semantics_remove import VARIANTS as FIG2
from benchmarks.test_fig3_flag_impl import VARIANTS as FIG3
from benchmarks.test_fig4_flag_impl_remove import VARIANTS as FIG4
from repro.driver import ChainsPolicy, FlagPolicy, FlagSemantics
from repro.harness.runner import flag_variant
from repro.machine import Machine, MachineConfig
from repro.ordering import (
    ConventionalScheme,
    NoOrderScheme,
    SchedulerChainsScheme,
    SchedulerFlagScheme,
    SoftUpdatesScheme,
)
from tests.conftest import SMALL_GEOMETRY, make_machine, run_user


class TestDefaultPolicies:
    def test_chains_scheme_gets_chains_policy(self):
        assert isinstance(SchedulerChainsScheme().driver_policy(),
                          ChainsPolicy)

    def test_flag_scheme_gets_part_nr(self):
        policy = SchedulerFlagScheme().driver_policy()
        assert isinstance(policy, FlagPolicy)
        assert policy.semantics is FlagSemantics.PART
        assert policy.read_bypass

    def test_others_get_ignore(self):
        for scheme in (NoOrderScheme(), ConventionalScheme(),
                       SoftUpdatesScheme()):
            policy = scheme.driver_policy()
            assert policy.semantics is FlagSemantics.IGNORE


#: every (semantics, read_bypass, block_copy) figures 1-4 build
FIGURE_FLAG_VARIANTS = sorted(
    {(semantics, bypass, True) for _label, semantics, bypass in FIG1 + FIG2}
    | {(FlagSemantics.PART, bypass, block_copy)
       for _label, bypass, block_copy in FIG3 + FIG4},
    key=lambda variant: (variant[0].value, variant[1:]))


@pytest.mark.parametrize("semantics,read_bypass,block_copy",
                         FIGURE_FLAG_VARIANTS)
def test_flag_variant_machine_runs_the_variants_policy(semantics,
                                                       read_bypass,
                                                       block_copy):
    """The figures name a flag meaning; the driver they run must have it."""
    machine = Machine(flag_variant(semantics, read_bypass,
                                   block_copy=block_copy))
    policy = machine.driver.policy
    assert type(policy) is FlagPolicy
    assert (policy.semantics, policy.read_bypass) == (semantics, read_bypass)
    assert machine.cache.block_copy is block_copy


class TestBlockCopyWiring:
    def test_scheme_preference_respected(self):
        machine = make_machine("conventional")
        assert machine.cache.block_copy is False
        machine = make_machine("softupdates")
        assert machine.cache.block_copy is True


class TestInstantMode:
    def test_populate_consumes_no_simulated_time(self):
        machine = make_machine("softupdates")

        def builder():
            for index in range(20):
                yield from machine.fs.write_file(f"/f{index}", b"x" * 4000)

        before = machine.engine.now
        machine.populate(builder())
        assert machine.engine.now == before
        # and the data is durable on the platters
        assert machine.disk.storage.sectors_written > 0

    def test_drop_caches_leaves_only_unevictable(self):
        machine = make_machine("noorder")

        def builder():
            yield from machine.fs.write_file("/f", b"x" * 8192)

        machine.populate(builder())
        assert machine.cache.used_bytes <= 2 * machine.fs.geometry.block_size

    def test_cold_read_after_populate(self):
        machine = make_machine("conventional")
        payload = b"p" * 5000

        def builder():
            yield from machine.fs.write_file("/cold", payload)

        machine.populate(builder())

        def reader():
            data = yield from machine.fs.read_file("/cold")
            return data

        assert run_user(machine, reader()) == payload
        assert machine.disk.stats.reads > 0  # really came from the platters


class TestRun:
    def test_run_multiple_processes(self):
        machine = make_machine("noorder")

        def worker(tag):
            yield from machine.fs.write_file(f"/w{tag}", b"y")
            return tag

        procs = [machine.spawn(worker(i), name=f"w{i}") for i in range(3)]
        assert machine.run(*procs) == [0, 1, 2]

    def test_sync_and_settle_flushes(self):
        machine = make_machine("softupdates")

        def worker():
            yield from machine.fs.write_file("/s", b"z" * 2048)

        machine.run(machine.spawn(worker()))
        machine.sync_and_settle()
        assert not machine.cache.dirty_buffers()
        assert machine.scheme.pending_work() == 0
