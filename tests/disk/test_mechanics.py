"""Unit tests for the seek/rotation/transfer timing model."""

import pytest
from hypothesis import given, strategies as st

from repro.disk import DiskGeometry, DiskParameters


@pytest.fixture
def params():
    return DiskParameters()


@pytest.fixture
def geo():
    return DiskGeometry()


class TestSeek:
    def test_zero_distance_is_free(self, params):
        assert params.seek_time(500, 500) == 0.0

    def test_single_cylinder_seek_near_spec(self, params):
        # HP C2447-class: ~2.5 ms single-cylinder
        assert 0.001 < params.seek_time(0, 1) < 0.005

    def test_average_seek_near_10ms(self, params, geo):
        # the mean distance between two uniform cylinders is a third of
        # the span
        avg = params.seek_time(0, geo.cylinders // 3)
        assert 0.007 < avg < 0.013

    def test_full_stroke_near_22ms(self, params, geo):
        full = params.seek_time(0, geo.cylinders - 1)
        assert 0.018 < full < 0.026

    def test_symmetric(self, params):
        assert params.seek_time(10, 900) == params.seek_time(900, 10)

    @given(d1=st.integers(1, 1748), d2=st.integers(1, 1748))
    def test_monotone_in_distance(self, d1, d2):
        params = DiskParameters()
        if d1 <= d2:
            assert params.seek_time(0, d1) <= params.seek_time(0, d2)


class TestRotation:
    def test_rotation_time_5400rpm(self, params):
        assert params.rotation_time == pytest.approx(60.0 / 5400.0)

    def test_delay_zero_when_sector_under_head(self, params, geo):
        # at t=0, sector 0 is just arriving
        assert params.rotational_delay(geo, 0.0, 0) == pytest.approx(0.0)

    def test_delay_wraps_around(self, params, geo):
        period = params.sector_period(geo)
        # just after sector 5 passed, must wait nearly a full revolution
        just_after = 5 * period + 1e-9
        delay = params.rotational_delay(geo, just_after, 5)
        assert delay == pytest.approx(params.rotation_time - 1e-9, abs=1e-6)

    @given(now=st.floats(0, 10, allow_nan=False), sector=st.integers(0, 71))
    def test_delay_bounded_by_one_revolution(self, now, sector):
        params, geo = DiskParameters(), DiskGeometry()
        delay = params.rotational_delay(geo, now, sector)
        assert 0.0 <= delay < params.rotation_time + 1e-12


class TestTransfer:
    def test_media_rate_is_track_per_revolution(self, params, geo):
        per_track = params.transfer_time(geo, geo.sectors_per_track)
        assert per_track == pytest.approx(params.rotation_time)

    def test_sequential_bandwidth_about_3mb_per_s(self, params, geo):
        one_mb_sectors = 1_000_000 // geo.sector_size
        seconds = params.transfer_time(geo, one_mb_sectors)
        bandwidth = 1_000_000 / seconds
        assert 2.5e6 < bandwidth < 4.5e6

    def test_negative_count_rejected(self, params, geo):
        with pytest.raises(ValueError):
            params.transfer_time(geo, -1)

    def test_bus_faster_than_media(self, params, geo):
        assert params.bus_time(geo, 16) < params.transfer_time(geo, 16)
