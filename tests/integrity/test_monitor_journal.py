"""The monitor's journal support and the ``journal-checkpoint-order`` rule.

The journaling scheme's one ordering obligation is the commit barrier: a
logged block image must not reach its home location before the
transaction's commit record is durable.  The breach is staged here at the
media level -- a descriptor and payload written to the log, then the
image checkpointed home with no commit record in sight -- so the test
exercises exactly what the monitor sees (the recorded media log) with no
scheme cooperation required.

Also pinned: the monitor judges the *recoverable* view (synthesized image
plus committed log overlay), so the journal scheme's lazy checkpoints --
arbitrarily delayed home writes of committed images -- never read as
structural violations, and a commit in the log region immediately updates
the structural state the rules run against.
"""

from repro.costs import CostModel
from repro.fs import journal
from repro.fs.layout import FSGeometry
from repro.harness.recording import recording
from repro.integrity.monitor import RULES, monitor_violations
from repro.machine import Machine, MachineConfig
from repro.ordering import JournalScheme

SMALL = FSGeometry(ipg=256, dfrags_per_cg=2048, ncg=2)


def journal_machine() -> Machine:
    machine = Machine(MachineConfig(scheme=JournalScheme(),
                                    fs_geometry=SMALL,
                                    cache_bytes=2 * 1024 * 1024,
                                    costs=CostModel(scale=0.0)))
    machine.format()
    return machine


def judge(machine, recorded):
    return monitor_violations(recorded, machine.config.fs_geometry,
                              machine.scheme.crash_guarantees)


def durable_commits(recorded) -> int:
    return sum(1 for write in recorded.windows if write.durable)


def test_rule_is_in_the_catalogue():
    assert "journal-checkpoint-order" in RULES


def test_journal_scheme_run_is_clean():
    machine = journal_machine()

    def work(fs):
        yield from fs.mkdir("/d")
        for i in range(10):
            yield from fs.write_file(f"/d/f{i}", b"x" * 6000)
        for i in range(0, 10, 2):
            yield from fs.unlink(f"/d/f{i}")

    with recording(machine) as recorded:
        machine.run(machine.spawn(work(machine.fs), name="work"))
        machine.sync_and_settle()
    violations = judge(machine, recorded)
    assert durable_commits(recorded) > 0
    assert not violations, [v.format() for v in violations][:5]


def test_checkpoint_before_commit_fires_and_commit_clears():
    """descriptor + payload durable, image checkpointed home, *then* the
    commit record: one rule hit, attributed to the home write."""
    machine = journal_machine()
    geo = machine.config.fs_geometry
    spf = geo.frag_size // machine.disk.geometry.sector_size
    base = geo.journal_start + 1
    # a genuinely free data fragment: the first data block belongs to the
    # root directory, so step several blocks past it
    target = geo.cg_data_start(0) + 4 * geo.frags_per_block + 7
    image = b"\xab\xcd" * (geo.frag_size // 2)
    seq = machine.scheme._next_seq
    desc = journal.descriptor_bytes(geo.frag_size, seq,
                                    [journal.Entry(journal.IMAGE,
                                                   target, 1)])

    def breach():
        request = machine.driver.write(base * spf, desc + image,
                                       issuer="breach")
        yield request.done
        # the barrier breach: home write while the commit is nowhere
        request = machine.driver.write(target * spf, image,
                                       issuer="breach")
        yield request.done

    def commit():
        checksum = journal.txn_checksum(desc, image)
        request = machine.driver.write(
            (base + 2) * spf,
            journal.commit_bytes(geo.frag_size, seq, checksum),
            issuer="breach")
        yield request.done
        # once committed, re-checkpointing the same image is legal
        request = machine.driver.write(target * spf, image,
                                       issuer="breach")
        yield request.done

    with recording(machine) as recorded:
        machine.run(machine.spawn(breach(), name="breach"))
        machine.run(machine.spawn(commit(), name="commit"))
    violations = judge(machine, recorded)
    hits = [v for v in violations if v.rule == "journal-checkpoint-order"]
    # one firing, at the first home write: none after the commit landed
    assert len(hits) == 1, [v.format() for v in violations]
    first_home, _commit, second_home = recorded.windows[1:]
    assert (hits[0].when, hits[0].lbn) == (first_home.end, target * spf)
    assert second_home.lbn == target * spf
    # the journal scheme declares no corruption: the hit is unexpected
    assert not hits[0].expected
    assert [v for v in violations if not v.expected] == hits


def test_checkpoint_after_commit_never_fires():
    """The legal order -- record, commit, then checkpoint -- is silent."""
    machine = journal_machine()
    geo = machine.config.fs_geometry
    spf = geo.frag_size // machine.disk.geometry.sector_size
    base = geo.journal_start + 1
    target = geo.cg_data_start(0) + 4 * geo.frags_per_block + 9
    image = b"\x5a\xa5" * (geo.frag_size // 2)
    seq = machine.scheme._next_seq
    desc = journal.descriptor_bytes(geo.frag_size, seq,
                                    [journal.Entry(journal.IMAGE,
                                                   target, 1)])

    def legal():
        request = machine.driver.write(base * spf, desc + image,
                                       issuer="legal")
        yield request.done
        checksum = journal.txn_checksum(desc, image)
        request = machine.driver.write(
            (base + 2) * spf,
            journal.commit_bytes(geo.frag_size, seq, checksum),
            issuer="legal")
        yield request.done
        request = machine.driver.write(target * spf, image, issuer="legal")
        yield request.done

    with recording(machine) as recorded:
        machine.run(machine.spawn(legal(), name="legal"))
    violations = judge(machine, recorded)
    assert durable_commits(recorded) == 3
    assert not violations, [v.format() for v in violations]


def test_lazy_checkpoints_do_not_false_fire():
    """A workload plus full settle: every committed image eventually
    checkpoints home (arbitrarily later than its commit) and the home
    writes replay older states over newer effective ones -- all silent,
    because the monitor reads the composite view."""
    machine = journal_machine()

    def work(fs):
        yield from fs.mkdir("/a")
        yield from fs.mkdir("/a/b")
        for i in range(8):
            yield from fs.write_file(f"/a/b/f{i}", b"m" * 5000)
        yield from fs.rename("/a/b/f0", "/a/top")
        for i in range(1, 8):
            yield from fs.unlink(f"/a/b/f{i}")
        yield from fs.rmdir("/a/b")

    with recording(machine) as recorded:
        machine.run(machine.spawn(work(machine.fs), name="work"))
        machine.sync_and_settle()
        machine.engine.run_until(
            machine.engine.process(machine.fs.unmount(), name="unmount"))
    violations = judge(machine, recorded)
    assert not violations, [v.format() for v in violations][:5]
    # and the log really did cycle: commits happened while we recorded
    assert machine.scheme._next_seq > 1
    assert durable_commits(recorded) > 10
