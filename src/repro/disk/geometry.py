"""Platter geometry and logical-block mapping.

A single-zone geometry is used (the HP C2447 had zones; zoning changes
absolute transfer rates slightly but none of the scheme comparisons).  LBNs
map in the classic order: sector, then head (track within cylinder), then
cylinder, so consecutive LBNs are rotationally consecutive.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class DiskGeometry:
    """Physical layout of the drive.

    The defaults give 1750 * 16 * 72 sectors * 512 B = 1.03 GB, matching the
    HP C2447's 1 GB capacity.
    """

    cylinders: int = 1750
    heads: int = 16
    sectors_per_track: int = 72
    sector_size: int = 512

    def __post_init__(self) -> None:
        for name in ("cylinders", "heads", "sectors_per_track", "sector_size"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    # -- derived sizes: functions of the frozen fields alone, so each is
    # computed once per instance (cached_property stores into __dict__,
    # which __eq__, __hash__ and repr() never look at)
    @cached_property
    def sectors_per_cylinder(self) -> int:
        return self.heads * self.sectors_per_track

    @cached_property
    def total_sectors(self) -> int:
        return self.cylinders * self.sectors_per_cylinder

    @property
    def capacity_bytes(self) -> int:
        return self.total_sectors * self.sector_size

    def cylinder_of(self, lbn: int) -> int:
        """Cylinder containing logical block *lbn*."""
        self._check(lbn)
        return lbn // self.sectors_per_cylinder

    def head_of(self, lbn: int) -> int:
        """Head (track index within the cylinder) for *lbn*."""
        self._check(lbn)
        return (lbn % self.sectors_per_cylinder) // self.sectors_per_track

    def sector_of(self, lbn: int) -> int:
        """Rotational sector index within the track for *lbn*."""
        self._check(lbn)
        return lbn % self.sectors_per_track

    def decompose(self, lbn: int) -> tuple[int, int, int]:
        """Return ``(cylinder, head, sector)`` for *lbn*."""
        return self.cylinder_of(lbn), self.head_of(lbn), self.sector_of(lbn)

    def _check(self, lbn: int) -> None:
        if not (0 <= lbn < self.total_sectors):
            raise ValueError(f"LBN {lbn} outside disk (0..{self.total_sectors - 1})")
