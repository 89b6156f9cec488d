"""Timing model: seek curve, rotation, transfer and overheads.

Constants approximate the HP C2447 [HP92]: ~2.5 ms single-cylinder seek,
~10 ms average seek, ~22 ms full stroke, 5400 RPM (11.1 ms revolution),
SCSI-2 bus at 10 MB/s, ~1 ms controller overhead per command.  The seek
curve is the standard two-regime fit: square-root for short seeks
(acceleration-limited) and linear for long seeks (coast-limited).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from repro.disk.geometry import DiskGeometry


@dataclass(frozen=True)
class DiskParameters:
    """Timing constants for the drive model (all times in seconds)."""

    rpm: float = 5400.0
    #: seek curve: short seeks  a + b*sqrt(distance)   (distance < crossover)
    seek_short_a: float = 0.0023
    seek_short_b: float = 0.00032
    #: seek curve: long seeks   c + d*distance         (distance >= crossover)
    seek_crossover: int = 1000
    seek_long_d: float = 0.0000128
    #: fixed per-command controller/firmware overhead
    controller_overhead: float = 0.0011
    #: head switch (settle) time when crossing tracks within a cylinder
    head_switch: float = 0.001
    #: SCSI bus bandwidth, bytes/second (cache-hit transfers run at bus speed)
    bus_bandwidth: float = 10e6

    @cached_property
    def rotation_time(self) -> float:
        """Seconds per revolution (computed once per instance)."""
        return 60.0 / self.rpm

    def sector_period(self, geometry: DiskGeometry) -> float:
        """Seconds for one sector to pass under the head."""
        return self.rotation_time / geometry.sectors_per_track

    def seek_time(self, from_cyl: int, to_cyl: int) -> float:
        """Seconds to move the arm between cylinders (0 if already there)."""
        distance = abs(to_cyl - from_cyl)
        if distance == 0:
            return 0.0
        if distance < self.seek_crossover:
            return self.seek_short_a + self.seek_short_b * math.sqrt(distance)
        at_crossover = (self.seek_short_a
                        + self.seek_short_b * math.sqrt(self.seek_crossover))
        return at_crossover + self.seek_long_d * (distance - self.seek_crossover)

    def rotational_delay(self, geometry: DiskGeometry, now: float,
                         target_sector: int) -> float:
        """Seconds until *target_sector* next arrives under the head.

        The platter rotates continuously from t=0; sector *s* begins passing
        the head at times ``t mod T == s * T / spt`` (no track skew).
        """
        period = self.rotation_time
        target_angle_time = (target_sector % geometry.sectors_per_track) \
            * self.sector_period(geometry)
        phase = now % period
        delay = target_angle_time - phase
        if delay < 0:
            delay += period
        return delay

    def transfer_time(self, geometry: DiskGeometry, nsectors: int) -> float:
        """Media transfer time for *nsectors* contiguous sectors.

        Track and cylinder crossings within the range are charged the head
        switch / single-cylinder seek implicitly via full rotational pacing:
        one sector per sector-period.  (A small simplification: real drives
        lose a partial revolution per track switch; this keeps sequential
        bandwidth at the media rate, which is what matters for the benchmark
        comparisons.)
        """
        if nsectors < 0:
            raise ValueError("negative sector count")
        return nsectors * self.sector_period(geometry)

    def bus_time(self, geometry: DiskGeometry, nsectors: int) -> float:
        """Bus transfer time (cache-hit reads move at bus speed)."""
        return nsectors * geometry.sector_size / self.bus_bandwidth
