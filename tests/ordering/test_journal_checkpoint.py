"""Journal checkpointing decides "superseded" from per-fragment counts.

Checkpointing a committed image must skip every home fragment that a
newer pending transaction re-imaged or revoked: writing the older image
there would regress state the newer transaction owns.  The scheme keeps,
for each home fragment, the number of pending transactions covering it,
up to date on commit and on retirement.  These tests hold that count to
the set it replaced -- rebuilt from the logged entries of every pending
transaction after the checkpointing one -- at every retirement and at
every step of the degraded fence, and run the fence over a non-empty log.
"""

from collections import Counter

from repro.integrity.fsck import fsck
from tests.ordering.test_journal import small_machine


def covered(entries) -> set:
    """Home frags a record's IMAGE and REVOKE entries name."""
    frags: set = set()
    for entry in entries:
        frags.update(range(entry.daddr, entry.daddr + entry.nfrags))
    return frags


def superseded_after(logged: dict, pending: list, index: int) -> set:
    """The reference: the set the scheme used to rebuild at every
    retirement, home frags covered by a pending transaction after
    *index*."""
    frags: set = set()
    for txn in pending[index + 1:]:
        frags |= covered(logged[txn.seq])
    return frags


class CheckpointAudit:
    """Checks every checkpoint decision of one scheme against the reference.

    Keeps each committed record's entries as logged.  At every
    ``_checkpoint_image`` it finds the image's transaction in the log and
    asserts that the frags the scheme skips are the image's frags in
    :func:`superseded_after`, and that the cover counts equal a recount
    of the transactions still counted: that one and every newer one.
    """

    def __init__(self, scheme) -> None:
        self.scheme = scheme
        self.logged: dict = {}
        #: (index in the log, daddr, bytes) of the image being checkpointed
        self.current = None
        #: (index, image bytes, skipped frags) per checkpointed image
        self.steps: list = []
        write_record = scheme._write_record
        checkpoint_image = scheme._checkpoint_image
        unsuperseded = scheme._unsuperseded

        def record(entries, images):
            ok = yield from write_record(entries, images)
            if ok:
                self.logged[scheme._pending[-1].seq] = list(entries)
            return ok

        def checkpoint(daddr, data):
            [index] = [i for i, txn in enumerate(scheme._pending)
                       if any(image is data for _daddr, image in txn.images)]
            self.current = (index, daddr, data)
            return (yield from checkpoint_image(daddr, data))

        def decide(daddr, nfrags):
            wanted = unsuperseded(daddr, nfrags)
            self.check(daddr, nfrags, wanted)
            return wanted

        scheme._write_record = record
        scheme._checkpoint_image = checkpoint
        scheme._unsuperseded = decide

    def check(self, daddr: int, nfrags: int, wanted: list) -> None:
        index, at, data = self.current
        assert at == daddr
        pending = list(self.scheme._pending)
        image = set(range(daddr, daddr + nfrags))
        skipped = image - {daddr + i for i in wanted}
        assert skipped == image & superseded_after(self.logged, pending,
                                                   index)
        recount = Counter(frag for txn in pending[index:]
                          for frag in covered(self.logged[txn.seq]))
        assert self.scheme._covers == dict(recount)
        self.steps.append((index, data, skipped))


def test_cover_counts_equal_the_rebuilt_set_at_every_retirement():
    machine = small_machine()
    machine.format()
    scheme = machine.scheme
    audit = CheckpointAudit(scheme)

    def work(fs):
        yield from fs.mkdir("/d")
        for i in range(40):
            yield from fs.write_file(f"/d/f{i}", b"c" * 4096)
        for i in range(20):
            yield from fs.unlink(f"/d/f{i}")

    machine.run(machine.spawn(work(machine.fs), name="work"))
    assert scheme.counts["journal.commits"] == 123
    assert scheme.counts["journal.checkpoints"] == 111
    # every retirement checkpointed from the ring's tail, and newer
    # transactions did supersede some of those images
    assert audit.steps and all(index == 0 for index, _, _ in audit.steps)
    assert any(skipped for _, _, skipped in audit.steps)
    assert any(not skipped for _, _, skipped in audit.steps)

    # the drain retires the rest through the same reclaim loop
    machine.sync_and_settle()
    assert scheme.counts["journal.checkpoints"] == 123
    assert not scheme._pending and scheme._covers == {}


#: the journal write that fails: the first 16 succeed, so the log holds
#: several transactions when the commit after them is lost
FAILING_WRITE = 17


def test_degraded_fence_over_a_nonempty_log():
    """A lost journal write fences a log holding several transactions.
    The fence walks them oldest first and skips every frag a newer one
    covers, so no older image of a block is laid over a newer one."""
    machine = small_machine()
    machine.format()
    scheme = machine.scheme
    geo = machine.config.fs_geometry
    spf = geo.frag_size // machine.disk.geometry.sector_size
    storage = machine.disk.storage
    audit = CheckpointAudit(scheme)
    raw_write = scheme._raw_write
    calls = []
    fences = []

    def failing_raw_write(daddr, data):
        calls.append(daddr)
        if len(calls) == FAILING_WRITE:
            return False
        return (yield from raw_write(daddr, data))

    enter_degraded = scheme._enter_degraded

    def fence(reason):
        log = list(scheme._pending)
        first = len(audit.steps)
        yield from enter_degraded(reason)
        fences.append((log, audit.steps[first:], {
            daddr: storage.read(daddr * spf, len(data) // geo.frag_size * spf)
            for txn in log for daddr, data in txn.images}))

    scheme._raw_write = failing_raw_write
    scheme._enter_degraded = fence

    def work(fs):
        yield from fs.mkdir("/d")
        for i in range(8):
            yield from fs.write_file(f"/d/f{i}", b"y" * 4096)

    machine.run(machine.spawn(work(machine.fs), name="work"))
    [(log, steps, home)] = fences
    assert len(log) >= 3
    # a block an older transaction logged that a newer one re-imaged
    # with other bytes
    rewritten = [(daddr, data)
                 for index, txn in enumerate(log)
                 for daddr, data in txn.images
                 if any(later_daddr == daddr and later != data
                        for newer in log[index + 1:]
                        for later_daddr, later in newer.images)]
    assert rewritten
    # the fence checkpointed every logged image, oldest first, skipping
    # the rewritten blocks' older images; none of them is left at home
    assert [index for index, _, _ in steps] == [
        index for index, txn in enumerate(log) for _ in txn.images]
    for daddr, data in rewritten:
        [skipped] = [skipped for _, image, skipped in steps if image is data]
        nfrags = len(data) // geo.frag_size
        assert skipped == set(range(daddr, daddr + nfrags))
        assert home[daddr] != data

    assert scheme._degraded and not scheme._pending
    assert scheme._covers == {}
    assert scheme.counts["journal.degraded"] == 1
    machine.sync_and_settle()
    report = fsck(storage.snapshot(), geo)
    assert not report.errors, report.errors
