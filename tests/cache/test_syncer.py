"""Tests for the syncer daemon: sweeps and mark-then-write."""

import pytest

from tests.cache.conftest import CacheRig


@pytest.fixture
def rig():
    return CacheRig(syncer=True)


def dirty_one(rig, daddr, value=0x33):
    def body():
        buf = yield from rig.cache.getblk(daddr, 1024)
        buf.data[:] = bytes([value]) * 1024
        rig.cache.bdwrite(buf)

    rig.run(body())


def run_for(rig, seconds):
    rig.engine.run(until=rig.engine.now + seconds, max_events=1_000_000)


def test_dirty_block_flushed_within_mark_write_window(rig):
    dirty_one(rig, 10)
    # 2 sweep passes: marked within 2s, written 1s later, plus I/O time
    run_for(rig, 4.0)
    assert rig.disk.storage.read(20, 2) == b"\x33" * 1024
    assert not rig.cache.peek(10).dirty


def test_mark_then_write_needs_two_wakeups(rig):
    dirty_one(rig, 0)  # region 0, marked on the first sweep that hits it
    run_for(rig, 1.5)  # one wakeup: marked but not yet written
    assert rig.disk.stats.writes == 0
    run_for(rig, 1.1)  # second wakeup: write initiated
    run_for(rig, 0.5)
    assert rig.disk.stats.writes == 1


def test_redirtied_block_flushes_again(rig):
    dirty_one(rig, 10, value=1)
    run_for(rig, 4.0)
    dirty_one(rig, 10, value=2)
    run_for(rig, 4.0)
    assert rig.disk.storage.read(20, 2) == b"\x02" * 1024
    assert rig.disk.stats.writes == 2


def test_busy_buffer_retried_not_dropped(rig):
    eng = rig.engine

    def hold_long():
        buf = yield from rig.cache.getblk(10, 1024)
        buf.data[:] = b"\x66" * 1024
        buf.mark_dirty(eng.now)
        # hold across several sweeps so flush attempts find it busy
        yield eng.timeout(5.0)
        rig.cache.bdwrite(buf)

    eng.process(hold_long())
    run_for(rig, 10.0)
    assert rig.disk.storage.read(20, 2) == b"\x66" * 1024


def test_unflushable_marked_buffer_retried_on_later_wakeup(rig):
    """A marked buffer whose ``start_flush`` returns None stays queued.

    The sweep must keep the buffer on its marked list (not silently drop
    it) so the flush happens on the first wakeup after it becomes
    flushable again -- without waiting a full mark/write cycle.
    """
    eng = rig.engine
    dirty_one(rig, 10)          # region 0: marked by the first sweep
    run_for(rig, 1.5)           # marked, not yet written
    buf = rig.cache.peek(10)
    assert buf.marked and buf.dirty

    held = []

    def hold():
        got = yield from rig.cache.getblk(10, 1024)
        held.append(got)

    rig.run(hold())             # busy: the next sweep cannot flush it
    run_for(rig, 1.1)           # the flush-eligible wakeup comes and goes
    assert rig.disk.stats.writes_started == 0
    assert rig.syncer.writes_started == 0
    assert buf.marked and buf.dirty  # retried, not dropped

    rig.cache.brelse(held[0])
    run_for(rig, 1.1)           # very next wakeup: flush goes out
    assert rig.syncer.writes_started == 1
    run_for(rig, 0.5)
    assert not buf.dirty
    assert rig.disk.storage.read(20, 2) == b"\x33" * 1024


def test_invalid_sweep_passes_rejected():
    with pytest.raises(ValueError):
        CacheRig(syncer=True).syncer.__class__(
            CacheRig().engine, CacheRig().cache, sweep_passes=0)
