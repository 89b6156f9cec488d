"""Unit/integration tests for the buffer cache."""

import pytest

from repro.ordering import OrderingScheme
from tests.cache.conftest import CacheRig


class TestGetblkBread:
    def test_getblk_returns_busy_buffer(self, rig):
        def body():
            buf = yield from rig.cache.getblk(10, 1024)
            assert buf.busy and not buf.valid
            rig.cache.brelse(buf)

        rig.run(body())

    def test_bread_fetches_disk_contents(self, rig):
        rig.disk.write_now(20, b"\xcd" * 1024)  # daddr 10 == lbn 20

        def body():
            buf = yield from rig.cache.bread(10, 1024)
            data = bytes(buf.data)
            rig.cache.brelse(buf)
            return data

        assert rig.run(body()) == b"\xcd" * 1024

    def test_second_bread_is_a_cache_hit(self, rig):
        def body():
            buf = yield from rig.cache.bread(10, 1024)
            rig.cache.brelse(buf)
            buf = yield from rig.cache.bread(10, 1024)
            rig.cache.brelse(buf)

        rig.run(body())
        assert rig.disk.stats.reads == 1
        assert rig.cache.hits >= 1

    def test_busy_buffer_blocks_second_process(self, rig):
        eng = rig.engine
        order = []

        def holder():
            buf = yield from rig.cache.getblk(10, 1024)
            order.append(("hold", eng.now))
            yield eng.timeout(1.0)
            rig.cache.brelse(buf)

        def contender():
            yield eng.timeout(0.1)
            buf = yield from rig.cache.getblk(10, 1024)
            order.append(("got", eng.now))
            rig.cache.brelse(buf)

        procs = [eng.process(holder()), eng.process(contender())]
        for proc in procs:
            eng.run_until(proc)
        assert order == [("hold", 0.0), ("got", 1.0)]

    def test_grow_for_fragment_extension(self, rig):
        def body():
            buf = yield from rig.cache.getblk(10, 1024)
            buf.data[:] = b"\x11" * 1024
            rig.cache.bdwrite(buf)
            buf = yield from rig.cache.getblk(10, 2048)
            assert buf.size == 2048
            assert bytes(buf.data[:1024]) == b"\x11" * 1024
            assert bytes(buf.data[1024:]) == bytes(1024)
            rig.cache.brelse(buf)

        rig.run(body())

    def test_shrinking_get_is_an_error(self, rig):
        def body():
            buf = yield from rig.cache.getblk(10, 2048)
            rig.cache.brelse(buf)
            yield from rig.cache.getblk(10, 1024)

        with pytest.raises(Exception, match="larger live buffer"):
            rig.run(body())

    def test_unaligned_size_rejected(self, rig):
        def body():
            yield from rig.cache.getblk(10, 1000)

        with pytest.raises(Exception):
            rig.run(body())


class TestWritePaths:
    def test_bwrite_is_synchronous_and_persists(self, rig):
        def body():
            buf = yield from rig.cache.getblk(10, 1024)
            buf.data[:] = b"\x77" * 1024
            buf.valid = True
            yield from rig.cache.bwrite(buf)
            return rig.engine.now

        elapsed = rig.run(body())
        assert elapsed > 0.001  # waited for mechanical I/O
        assert rig.disk.storage.read(20, 2) == b"\x77" * 1024

    def test_bdwrite_does_not_touch_disk(self, rig):
        def body():
            buf = yield from rig.cache.getblk(10, 1024)
            buf.data[:] = b"\x88" * 1024
            rig.cache.bdwrite(buf)

        rig.run(body())
        assert rig.disk.stats.writes == 0
        assert rig.cache.peek(10).dirty

    def test_bawrite_returns_before_completion(self, rig):
        def body():
            buf = yield from rig.cache.getblk(10, 1024)
            buf.data[:] = b"\x99" * 1024
            buf.valid = True
            request = yield from rig.cache.bawrite(buf)
            issued_at = rig.engine.now
            yield request.done
            return issued_at, rig.engine.now

        issued_at, done_at = rig.run(body())
        assert issued_at < done_at

    def test_write_lock_blocks_second_update_without_cb(self, rig):
        """Section 3.3: without -CB a second update waits for the I/O."""
        eng = rig.engine
        reacquired = []

        def body():
            buf = yield from rig.cache.getblk(10, 1024)
            buf.data[:] = b"\x01" * 1024
            buf.valid = True
            yield from rig.cache.bawrite(buf)
            buf = yield from rig.cache.getblk(10, 1024)  # must wait for I/O
            reacquired.append(eng.now)
            rig.cache.brelse(buf)

        rig.run(body())
        assert reacquired[0] >= 0.001  # at least a mechanical write later

    def test_block_copy_avoids_write_lock(self):
        """With -CB the buffer is immediately reusable after bawrite."""
        rig = CacheRig(block_copy=True)
        reacquired = []

        def body():
            buf = yield from rig.cache.getblk(10, 1024)
            buf.data[:] = b"\x01" * 1024
            buf.valid = True
            request = yield from rig.cache.bawrite(buf)
            buf = yield from rig.cache.getblk(10, 1024)
            reacquired.append(rig.engine.now)
            buf.data[:] = b"\x02" * 1024
            rig.cache.bdwrite(buf)
            yield request.done

        rig.run(body())
        assert reacquired[0] == 0.0  # no wait at all
        # the first write carried the snapshot, not the later update
        assert rig.disk.storage.read(20, 2) == b"\x01" * 1024

    def test_overlapping_writes_land_in_issue_order(self):
        rig = CacheRig(block_copy=True)

        def body():
            for value in (1, 2, 3):
                buf = yield from rig.cache.getblk(10, 1024)
                buf.data[:] = bytes([value]) * 1024
                buf.valid = True
                yield from rig.cache.bawrite(buf)
            yield from rig.cache.sync()

        rig.run(body())
        assert rig.disk.storage.read(20, 2) == b"\x03" * 1024

    def test_pre_write_hook_rewrites_image_not_memory(self):
        class RollingBack(OrderingScheme):
            def write_starting(self, buf, image, deps):
                image[0:4] = b"SAFE"

        rig = CacheRig(scheme=RollingBack())

        def body():
            buf = yield from rig.cache.getblk(10, 1024)
            buf.data[:] = b"\xee" * 1024
            buf.valid = True
            yield from rig.cache.bwrite(buf)
            return bytes(rig.cache.peek(10).data[0:4])

        in_memory = rig.run(body())
        assert rig.disk.storage.read(20, 1)[0:4] == b"SAFE"
        assert in_memory == b"\xee" * 4  # memory copy untouched

    def test_post_write_hook_runs_at_completion(self):
        fired = []

        class Watching(OrderingScheme):
            def write_done(self, buf):
                fired.append(rig.engine.now)

        rig = CacheRig(scheme=Watching())

        def body():
            buf = yield from rig.cache.getblk(10, 1024)
            buf.valid = True
            yield from rig.cache.bwrite(buf)

        rig.run(body())
        assert len(fired) == 1 and fired[0] > 0


class TestInvalidate:
    def test_invalidate_cancels_delayed_write(self, rig):
        def body():
            buf = yield from rig.cache.getblk(10, 1024)
            buf.data[:] = b"\x55" * 1024
            rig.cache.bdwrite(buf)
            rig.cache.invalidate(10, 1)
            yield from rig.cache.sync()

        rig.run(body())
        assert rig.disk.stats.writes == 0
        assert rig.cache.peek(10) is None

    def test_invalidate_range_covers_inner_buffers(self, rig):
        def body():
            for daddr in (8, 9, 10):
                buf = yield from rig.cache.getblk(daddr, 1024)
                rig.cache.bdwrite(buf)
            rig.cache.invalidate(8, 2)

        rig.run(body())
        assert rig.cache.peek(8) is None
        assert rig.cache.peek(9) is None
        assert rig.cache.peek(10) is not None


class TestReclaim:
    def test_clean_buffers_evicted_lru(self):
        rig = CacheRig(capacity_bytes=4 * 1024)

        def body():
            for daddr in range(8):
                buf = yield from rig.cache.bread(daddr * 8, 1024)
                rig.cache.brelse(buf)

        rig.run(body())
        assert rig.cache.used_bytes <= 4 * 1024
        assert rig.cache.peek(0) is None      # oldest evicted
        assert rig.cache.peek(56) is not None  # newest resident

    def test_dirty_cache_forces_flush_and_makes_progress(self):
        rig = CacheRig(capacity_bytes=4 * 1024)

        def body():
            for daddr in range(12):
                buf = yield from rig.cache.getblk(daddr * 8, 1024)
                buf.data[:] = bytes([daddr]) * 1024
                rig.cache.bdwrite(buf)
            yield from rig.cache.sync()

        rig.run(body())
        assert rig.cache.flushes_forced > 0
        # every delayed write eventually landed
        for daddr in range(12):
            assert rig.disk.storage.read(daddr * 16, 2) == bytes([daddr]) * 1024

    def test_held_buffers_survive_reclaim(self):
        rig = CacheRig(capacity_bytes=4 * 1024)

        def body():
            pinned = yield from rig.cache.bread(0, 1024)
            pinned.hold_count += 1
            rig.cache.brelse(pinned)
            for daddr in range(1, 12):
                buf = yield from rig.cache.bread(daddr * 8, 1024)
                rig.cache.brelse(buf)
            return pinned

        pinned = rig.run(body())
        assert rig.cache.peek(0) is pinned


class TestSync:
    def test_sync_flushes_everything(self, rig):
        def body():
            for daddr in (0, 8, 16):
                buf = yield from rig.cache.getblk(daddr, 1024)
                buf.data[:] = b"\x42" * 1024
                rig.cache.bdwrite(buf)
            yield from rig.cache.sync()

        rig.run(body())
        assert not rig.cache.dirty_buffers()
        assert rig.disk.stats.writes >= 1
        for daddr in (0, 8, 16):
            assert rig.disk.storage.read(daddr * 2, 2) == b"\x42" * 1024
