"""Crash injection: freeze the machine, keep only what the platters hold.

A "crash" here is a power failure (the paper's motivating event): the
machine stops mid-whatever, all memory contents evaporate, and the surviving
state is the sector store -- plus the prefix of any write whose transfer was
under way, because sectors are laid down in order and each sector is
individually protected by its ECC (paper, footnote 1).

This is the image source of the *replay oracle*
(``tests/integrity/replay_oracle.py``): sweeps synthesize each crash image
from the media write-log (:mod:`repro.integrity.medialog`) with no
re-simulation, and the equivalence suite proves those images
byte-identical to the ones this module produces on a machine run to the
crash instant.  The in-flight prefix is asked of the drive's own record of
the transfer (``InFlightWrite.sectors_applied_by``), the record synthesis
reads from the log.  What survives *off* the media is still said twice:
the scheme's ``apply_to_image`` here (a no-op for every disk-only
scheme), the survivor replay in ``ImageSynthesizer``.
"""

from __future__ import annotations

from typing import Optional

from repro.disk.storage import SectorStore
from repro.machine import Machine


def crash_image(machine: Machine) -> SectorStore:
    """The disk image as it would survive a power failure right now."""
    image = machine.disk.storage.snapshot()
    in_flight = machine.disk.in_flight
    if in_flight is not None:
        image.write_partial(in_flight.lbn, in_flight.data,
                            in_flight.sectors_applied_by(machine.engine.now))
    # battery-backed survivors (the NVRAM extension) replay over the image
    machine.scheme.apply_to_image(image)
    return image


class CrashScheduler:
    """Run a workload and crash at a chosen simulated instant.

    The workload generator is spawned, the engine runs until ``crash_at``
    (absolute simulated seconds), and the surviving image is returned.  If
    the workload finishes first, the image is taken at completion time
    (still without any post-crash flushing -- dirty buffers are lost).
    """

    def __init__(self, machine: Machine) -> None:
        self.machine = machine

    def run_and_crash(self, workload, crash_at: float,
                      name: str = "victim",
                      max_events: Optional[int] = 5_000_000) -> SectorStore:
        engine = self.machine.engine
        engine.process(workload, name=name)
        engine.run_to(engine.now + crash_at, max_events=max_events)
        return crash_image(self.machine)
