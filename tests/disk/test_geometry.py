"""Unit tests for disk geometry and LBN mapping."""

import pytest
from hypothesis import given, strategies as st

from repro.disk import DiskGeometry


@pytest.fixture
def geo():
    return DiskGeometry()


def test_default_capacity_is_about_1gb(geo):
    assert 0.95e9 < geo.capacity_bytes < 1.1e9


def test_lbn_zero_maps_to_origin(geo):
    assert geo.decompose(0) == (0, 0, 0)


def test_consecutive_lbns_are_rotationally_consecutive(geo):
    c0, h0, s0 = geo.decompose(100)
    c1, h1, s1 = geo.decompose(101)
    assert (c0, h0) == (c1, h1)
    assert s1 == s0 + 1


def test_track_boundary_switches_head(geo):
    last_on_track = geo.sectors_per_track - 1
    assert geo.decompose(last_on_track) == (0, 0, last_on_track)
    assert geo.decompose(last_on_track + 1) == (0, 1, 0)


def test_cylinder_boundary(geo):
    spc = geo.sectors_per_cylinder
    assert geo.decompose(spc - 1) == (0, geo.heads - 1, geo.sectors_per_track - 1)
    assert geo.decompose(spc) == (1, 0, 0)


def test_out_of_range_lbn_rejected(geo):
    with pytest.raises(ValueError):
        geo.cylinder_of(-1)
    with pytest.raises(ValueError):
        geo.cylinder_of(geo.total_sectors)


def test_bad_construction_rejected():
    with pytest.raises(ValueError):
        DiskGeometry(cylinders=0)
    with pytest.raises(ValueError):
        DiskGeometry(sector_size=-512)


def lbn_of(geo, cylinder, head, sector):
    """The inverse of ``decompose``."""
    return (cylinder * geo.sectors_per_cylinder
            + head * geo.sectors_per_track + sector)


@given(lbn=st.integers(min_value=0, max_value=DiskGeometry().total_sectors - 1))
def test_decompose_roundtrips(lbn):
    geo = DiskGeometry()
    cylinder, head, sector = geo.decompose(lbn)
    assert lbn_of(geo, cylinder, head, sector) == lbn


@given(cylinder=st.integers(0, 1749), head=st.integers(0, 15),
       sector=st.integers(0, 71))
def test_lbn_of_roundtrips(cylinder, head, sector):
    geo = DiskGeometry()
    lbn = lbn_of(geo, cylinder, head, sector)
    assert geo.decompose(lbn) == (cylinder, head, sector)
