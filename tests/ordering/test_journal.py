"""The write-ahead journaling scheme, end to end.

Covers the scheme's whole life cycle on a small testbed: commit-then-
checkpoint during normal operation, recovery by replay after a crash at
an arbitrary instant, the drain that retires the log at unmount, the
degraded-mode fallback to synchronous ordering when the log itself
fails, and the stale-data audit (journaled metadata must never replay a
previous owner's bytes into a file).
"""

import pytest

from repro.costs import CostModel
from repro.fs import journal
from repro.fs.layout import FSGeometry
from repro.integrity.explorer import explore
from repro.integrity.fsck import fsck, repair
from repro.machine import Machine, MachineConfig
from repro.obs import snapshot
from repro.ordering import JournalScheme

SMALL = FSGeometry(ipg=256, dfrags_per_cg=2048, ncg=2)


def small_machine(observe: bool = False) -> Machine:
    return Machine(MachineConfig(scheme=JournalScheme(),
                                 fs_geometry=SMALL,
                                 cache_bytes=2 * 1024 * 1024,
                                 costs=CostModel(scale=0.0),
                                 observe=observe))


def scan(machine):
    storage = machine.disk.storage
    geo = machine.config.fs_geometry
    spf = geo.frag_size // machine.disk.geometry.sector_size
    return journal.scan_journal(
        lambda daddr, n: storage.read(daddr * spf, n * spf), geo)


def test_machine_reserves_journal_area():
    machine = small_machine()
    geo = machine.config.fs_geometry
    assert geo.journal_frags >= 24
    machine.format()
    assert machine.scheme.fs is machine.fs
    # mkfs + mount left a parseable, empty log
    result = scan(machine)
    assert result.overlay == {} and result.transactions == []


def test_journal_scheme_requires_journal_area():
    machine = Machine(MachineConfig(scheme=JournalScheme(),
                                    fs_geometry=SMALL,
                                    costs=CostModel(scale=0.0)))
    # sabotage: strip the reserved area after construction
    machine.config.fs_geometry = SMALL
    with pytest.raises(RuntimeError, match="journal"):
        machine.format()


def test_workload_settles_with_no_pending_work():
    machine = small_machine()
    machine.format()

    def work(fs):
        yield from fs.mkdir("/d")
        for i in range(10):
            yield from fs.write_file(f"/d/f{i}", b"x" * 6000)
        for i in range(0, 10, 2):
            yield from fs.unlink(f"/d/f{i}")
        yield from fs.rename("/d/f1", "/d/renamed")

    machine.run(machine.spawn(work(machine.fs), name="work"))
    assert machine.scheme._pending  # commits landed in the log
    machine.sync_and_settle()
    assert machine.scheme.pending_work() == 0
    assert not machine.scheme._degraded
    report = fsck(machine.disk.storage.snapshot(),
                  machine.config.fs_geometry)
    assert not report.errors, report.errors


def test_crash_recovery_replays_committed_state():
    """fsync makes a file durable through the *log* alone: crash before
    any checkpoint, repair, remount -- the bytes are there."""
    machine = small_machine()
    machine.format()

    def work(fs):
        yield from fs.mkdir("/d")
        yield from fs.write_file("/d/keep", b"K" * 5000)
        handle = yield from fs.open("/d/keep")
        yield from fs.fsync(handle)
        yield from fs.close(handle)
        # uncheckpointed, possibly unflushed trailing work rides along
        yield from fs.write_file("/d/tail", b"T" * 3000)

    machine.run(machine.spawn(work(machine.fs), name="work"))
    crash = machine.disk.storage.snapshot()
    geo = machine.config.fs_geometry

    # the *recovered* view is already sound: fsck reads through the log
    report = fsck(crash, geo)
    assert not report.errors, report.errors

    # physical recovery retires the log and leaves a clean image
    repair(crash, report, geo)
    after = fsck(crash, geo)
    assert not after.errors and not after.warnings, (after.errors,
                                                     after.warnings)

    survivor = Machine(MachineConfig(scheme=JournalScheme(),
                                     fs_geometry=SMALL,
                                     cache_bytes=2 * 1024 * 1024,
                                     costs=CostModel(scale=0.0)))
    survivor.adopt_image(crash)

    def read(fs):
        return (yield from fs.read_file("/d/keep"))

    [data] = survivor.run(survivor.spawn(read(survivor.fs), name="read"))
    assert data == b"K" * 5000


def test_replay_without_repair_on_remount():
    """Mounting a crashed image replays the log in place (the scheme's
    own recovery path, no fsck involved)."""
    machine = small_machine()
    machine.format()

    def work(fs):
        yield from fs.write_file("/f", b"J" * 4096)
        handle = yield from fs.open("/f")
        yield from fs.fsync(handle)
        yield from fs.close(handle)

    machine.run(machine.spawn(work(machine.fs), name="work"))
    crash = machine.disk.storage.snapshot()

    survivor = Machine(MachineConfig(scheme=JournalScheme(),
                                     fs_geometry=SMALL,
                                     cache_bytes=2 * 1024 * 1024,
                                     costs=CostModel(scale=0.0)))
    survivor.adopt_image(crash)
    # mount-time replay retired the log
    result = scan(survivor)
    assert result.overlay == {} and result.transactions == []

    def read(fs):
        return (yield from fs.read_file("/f"))

    [data] = survivor.run(survivor.spawn(read(survivor.fs), name="read"))
    assert data == b"J" * 4096


def test_unmount_drains_and_retires_log():
    machine = small_machine()
    machine.format()

    def work(fs):
        yield from fs.mkdir("/d")
        yield from fs.write_file("/d/f", b"z" * 8000)

    machine.run(machine.spawn(work(machine.fs), name="work"))
    machine.engine.run_until(
        machine.engine.process(machine.fs.unmount(), name="unmount"))
    result = scan(machine)
    assert result.overlay == {} and result.transactions == []
    assert machine.scheme.pending_work() == 0
    report = fsck(machine.disk.storage.snapshot(),
                  machine.config.fs_geometry)
    assert not report.errors and not report.warnings


def test_degraded_fallback_keeps_ordering():
    """When the log itself cannot be written the scheme falls back to
    synchronous ordering writes -- slower, never less safe.  Every hook's
    fallback runs: each names its update point on a sync stall."""
    machine = small_machine(observe=True)
    machine.format()

    def failing_raw_write(daddr, data):
        return False
        yield  # pragma: no cover -- makes this a (empty) generator

    machine.scheme._raw_write = failing_raw_write

    def work(fs):
        yield from fs.mkdir("/d")
        for i in range(6):
            yield from fs.write_file(f"/d/f{i}", b"y" * 4000)
        yield from fs.unlink("/d/f0")
        yield from fs.truncate("/d/f1")
        handle = yield from fs.open("/d/f2")
        yield from fs.fsync(handle)
        yield from fs.close(handle)
        yield from fs.rename("/d/f3", "/d/moved")

    machine.run(machine.spawn(work(machine.fs), name="work"))
    assert machine.scheme._degraded
    assert machine.scheme.pending_work() == 0
    points = {span.args["point"] for span in machine.tracer.spans
              if span.name == "ordering.sync_stall"}
    assert points >= {"link_added", "link_removed", "block_init",
                      "truncate", "release_inode", "fsync"}, points
    machine.sync_and_settle()
    report = fsck(machine.disk.storage.snapshot(),
                  machine.config.fs_geometry)
    assert not report.errors, report.errors


def test_counters_register_commits_and_checkpoints():
    """Every committed transaction is counted once more when it leaves the
    ring: the unmount's drain retires the log through the same path as
    running out of room."""
    machine = small_machine(observe=True)
    machine.format()

    def work(fs):
        yield from fs.mkdir("/d")
        for i in range(8):
            yield from fs.write_file(f"/d/f{i}", b"c" * 4000)

    machine.run(machine.spawn(work(machine.fs), name="work"))
    machine.engine.run_until(
        machine.engine.process(machine.fs.unmount(), name="unmount"))
    counters = machine.scheme.counts
    metrics = snapshot(machine)
    assert counters["journal.commits"] == metrics["journal.commits"]
    assert counters.get("journal.commits", 0) > 0
    assert counters["journal.checkpoints"] == counters["journal.commits"]
    assert counters.get("journal.degraded", 0) == 0


# ----------------------------------------------------------------------
# the stale-data audit (paper section 1's security hole)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", ["reuse", "remove"])
def test_journal_never_leaks_planted_secrets(workload):
    """Every free fragment is filled with a marker before the victim
    workload runs; no crash point -- including mid-checkpoint partial
    writes -- may leave a file exposing it through replayed blocks."""
    report = explore("journal", workload, seed=0, max_points=60,
                     secrets=True)
    assert report.exit_status == 0, \
        [(f.index, f.label) for f in report.unexpected_findings][:5]
    assert not report.unexpected_findings
