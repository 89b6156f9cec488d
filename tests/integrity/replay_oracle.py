"""The replay oracle: verify a crash point by re-simulating up to it.

This is how the explorer obtained every crash image before the media
write-log existed, kept as the reference the shipped path is compared
against (``test_synthesis_equivalence.py``): build a fresh machine, run the
same workload with ``engine.run_to(t)``, cut the power with
:func:`crash_image` -- the platters, the sector prefix of the write under
the head, and NVRAM's live mirror read straight off the scheme -- and
classify the survivor with the explorer's own
:func:`~repro.integrity.explorer.classify_image`.  O(full prefix
simulation) per point, which is why it is not shipped; it shares nothing
with ``ImageSynthesizer`` (which replays the recorded ``on_survivor``
stream, not the mirror), which is why it is an oracle.
"""

from repro.disk.storage import SectorStore
from repro.integrity.explorer import (
    build_machine,
    build_workload,
    classify_image,
    enumerate_crash_points,
)
from repro.integrity.fsck import Auditor
from repro.harness.recording import record_run
from repro.machine import Machine
from repro.ordering.nvram import NvramScheme


def crash_image(machine: Machine) -> SectorStore:
    """The disk image a power failure right now leaves on a live machine.

    The drive lays sectors down in LBN order, each under its own ECC
    (paper, footnote 1), so a write mid-transfer leaves the prefix that has
    passed under the head; NVRAM's battery-backed mirror then replays over
    the image in insertion order.
    """
    image = machine.disk.storage.snapshot()
    in_flight = machine.disk.in_flight
    if in_flight is not None:
        image.write_partial(in_flight.lbn, in_flight.data,
                            in_flight.sectors_applied_by(machine.engine.now))
    if isinstance(machine.scheme, NvramScheme):
        spf = machine.cache.sectors_per_frag
        for daddr, data in machine.scheme._mirror.items():
            image.write(daddr * spf, data)
    return image


def run_and_crash(machine, workload, crash_at):
    """Run *workload* for *crash_at* simulated seconds, then cut the power
    (dirty buffers are lost; a workload that finished first is not
    flushed)."""
    machine.engine.process(workload, name="victim")
    machine.engine.run_to(machine.engine.now + crash_at,
                          max_events=5_000_000)
    return crash_image(machine)


def replay_machine(scheme, workload, seed, ops, when, secrets=False,
                   fault_profile=None, fault_seed=0):
    """A fresh machine that ran the workload up to *when* (inclusive)."""
    machine = build_machine(scheme, secrets=secrets,
                            fault_profile=fault_profile,
                            fault_seed=fault_seed)
    process = machine.engine.process(
        build_workload(machine, workload, seed, ops), name="victim")
    machine.engine.run_to(when, max_events=20_000_000)
    if process.triggered and not process.ok:
        raise process.value
    return machine


def replay_image(scheme, workload, seed, ops, when, **kwargs):
    """The image a power failure at *when* leaves, by re-simulation."""
    return crash_image(replay_machine(scheme, workload, seed, ops, when,
                                      **kwargs))


def replay_finding(scheme, workload, seed, ops, point, secrets=False,
                   verify_repair=False, **kwargs):
    """The :class:`CrashFinding` for *point*, by re-simulation."""
    machine = replay_machine(scheme, workload, seed, ops, point.time,
                             secrets=secrets, **kwargs)
    geometry = machine.config.fs_geometry
    image = crash_image(machine)
    repairs = Auditor(geometry) if verify_repair else None
    return classify_image(image, Auditor(geometry).audit(image), geometry,
                          secrets, repairs, machine.scheme.crash_guarantees,
                          point)


def replay_findings(scheme, workload="microbench", seed=0, ops=None,
                    samples_per_write=2, max_points=240, secrets=False,
                    verify_repair=False, fault_profile=None, fault_seed=0):
    """What ``explore(...)`` must report, one re-simulation per point."""
    machine = build_machine(scheme, secrets=secrets,
                            fault_profile=fault_profile,
                            fault_seed=fault_seed)
    recorded = record_run(machine,
                          build_workload(machine, workload, seed, ops))
    points = enumerate_crash_points(recorded, samples_per_write, max_points,
                                    sample_seed=seed)
    return [replay_finding(scheme, workload, seed, ops, point,
                           secrets=secrets, verify_repair=verify_repair,
                           fault_profile=fault_profile,
                           fault_seed=fault_seed)
            for point in points]
