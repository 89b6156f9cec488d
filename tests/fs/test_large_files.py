"""Deep block-mapping coverage: single and double indirect files."""

import pytest

from repro.fs.layout import FSGeometry
from tests.conftest import make_machine, run_user

#: a geometry with a tiny indirect fan-out would be ideal, but nindir is
#: block_size/4; instead use sparse writes to reach double-indirect range
GEO = FSGeometry(ipg=256, dfrags_per_cg=8192, ncg=2)


def make(scheme="softupdates"):
    return make_machine(scheme, geometry=GEO, cache_bytes=8 * 1024 * 1024)


class TestSparseFiles:
    def test_holes_read_as_zeros(self):
        m = make()
        bs = m.fs.geometry.block_size

        def user():
            handle = yield from m.fs.create("/sparse")
            handle.offset = 5 * bs  # leave blocks 0-4 as holes
            yield from m.fs.write(handle, b"tail")
            yield from m.fs.close(handle)
            full = yield from m.fs.read_file("/sparse")
            return full

        data = run_user(m, user())
        assert len(data) == 5 * GEO.block_size + 4
        assert data[:5 * GEO.block_size] == bytes(5 * GEO.block_size)
        assert data[-4:] == b"tail"

    def test_sparse_write_into_double_indirect_range(self):
        m = make()
        geo = m.fs.geometry
        bs = geo.block_size
        # first double-indirect logical block
        lblk = geo.NDADDR + geo.nindir

        def user():
            handle = yield from m.fs.create("/deep")
            handle.offset = lblk * bs
            yield from m.fs.write(handle, b"DEEP" * 256)
            yield from m.fs.close(handle)
            yield from m.fs.sync()
            handle = yield from m.fs.open("/deep")
            handle.offset = lblk * bs
            data = yield from m.fs.read(handle, 1024)
            yield from m.fs.close(handle)
            return data

        assert run_user(m, user(), max_events=50_000_000) == b"DEEP" * 256
        st = run_user(m, m.fs.stat("/deep"))
        assert st.dindirect != 0

    def test_double_indirect_file_unlink_frees_everything(self):
        m = make("conventional")
        geo = m.fs.geometry
        bs = geo.block_size
        lblk = geo.NDADDR + geo.nindir + 3
        before = sum(m.fs.allocator.cg_free_frags)

        def user():
            handle = yield from m.fs.create("/deep")
            handle.offset = lblk * bs
            yield from m.fs.write(handle, b"x")
            yield from m.fs.close(handle)
            yield from m.fs.unlink("/deep")
            yield from m.fs.sync()

        run_user(m, user(), max_events=50_000_000)
        assert sum(m.fs.allocator.cg_free_frags) == before

    def test_deep_file_survives_crash_recovery(self):
        m = make("softupdates")
        geo = m.fs.geometry
        lblk = geo.NDADDR + geo.nindir

        def user():
            handle = yield from m.fs.create("/deep")
            handle.offset = lblk * geo.block_size
            yield from m.fs.write(handle, b"safe")
            yield from m.fs.fsync(handle)
            yield from m.fs.close(handle)

        run_user(m, user(), max_events=50_000_000)
        from repro.integrity import fsck
        from tests.integrity.replay_oracle import crash_image
        report = fsck(crash_image(m), GEO)
        assert report.clean, report.errors[:3]

    def test_beyond_max_file_size_rejected(self):
        m = make()
        geo = m.fs.geometry

        def user():
            handle = yield from m.fs.create("/huge")
            max_blocks = geo.NDADDR + geo.nindir + geo.nindir ** 2
            handle.offset = max_blocks * geo.block_size + 1
            yield from m.fs.write(handle, b"x")

        from repro.sim import ProcessCrashed
        with pytest.raises(ProcessCrashed, match="EFBIG"):
            run_user(m, user(), max_events=50_000_000)
