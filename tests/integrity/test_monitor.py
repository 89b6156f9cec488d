"""The ordering monitor: a pass over the recording, with controls.

Three contracts:

1. **Zero simulation impact**: the monitor runs after the recording and
   reads only the recording, so a monitored sweep and a bare one are the
   *same sweep* -- identical findings, write windows and event counts.
2. **Composition**: the media log is one entry of the drive's
   ``write_observers`` list beside any others: every entry is handed the
   same record objects in append order, and ``recording`` / ``record_run``
   leave the list as they found it however the run ends.
3. **Controls**: ``noorder`` -- which declares no ordering -- must
   produce rule hits (the negative control proves the monitor is not
   vacuously silent), all *within* its declaration; the five guaranteed
   schemes and NVRAM (its battery-backed mirror is part of the
   synthesized image) stay violation-free across seeds.
"""

import pytest

from repro.fs.layout import INODE_SIZE, ROOT_INO
from repro.harness.recording import record_run, recording
from repro.integrity.explorer import WORKLOADS, build_machine, \
    build_workload, explore
from repro.integrity.fsck import fsck
from repro.integrity.medialog import MediaLog
from repro.integrity.monitor import monitor_violations
from repro.sim import ProcessCrashed
from tests.conftest import run_user
from tests.integrity.test_fsck import poke

SAFE_SCHEMES = ["conventional", "flag", "chains", "softupdates", "journal"]
SCHEMES = ["noorder", *SAFE_SCHEMES, "nvram"]


def touch(fs, path):
    yield from fs.write_file(path, b"x" * 4096)
    yield from fs.sync()


class TestObserverEffect:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_monitored_run_is_simulation_identical(self, scheme):
        bare = explore(scheme, "microbench", seed=0, ops=12,
                       max_points=16)
        watched = explore(scheme, "microbench", seed=0, ops=12,
                          max_points=16, monitor=True)
        assert watched.findings == bare.findings
        assert watched.write_windows == bare.write_windows > 0
        assert watched.sim_events == bare.sim_events
        assert watched.quiesce_time == bare.quiesce_time
        # and the monitor walked the whole recording
        assert watched.monitor_windows == watched.write_windows


class TestLifecycle:
    def test_observers_compose_in_append_order(self):
        machine = build_machine("conventional")
        observers = machine.disk.write_observers
        assert observers == []
        first, second = MediaLog(), MediaLog()
        order = []
        observers.append(lambda write: order.append(("first", id(write))))
        observers.append(first.entries.append)
        observers.append(second.entries.append)
        observers.append(lambda write: order.append(("last", id(write))))

        run_user(machine, touch(machine.fs, "/f"), name="touch")
        # every observer saw every write, as the very same objects ...
        assert len(first) == len(second) > 0
        assert all(a is b for a, b in zip(first.entries, second.entries))
        # ... and for each write the list was walked front to back
        assert order == [(tag, id(write)) for write in first.entries
                         for tag in ("first", "last")]
        # removing any one entry leaves the others, in order
        observers.remove(first.entries.append)
        assert observers[1] == second.entries.append
        seen = len(second)
        run_user(machine, touch(machine.fs, "/g"), name="touch again")
        assert len(second) > seen
        assert len(first) == seen

    def test_breach_in_the_base_image_is_reported_at_lbn_minus_1(self):
        machine = build_machine("conventional")
        geo = machine.config.fs_geometry
        run_user(machine, touch(machine.fs, "/f"), name="touch")
        # before the recording starts, free /f's inode under its entry
        report = fsck(machine.disk.storage, geo)
        ino = next(ino for ino, refs in report.references.items()
                   if (ROOT_INO, "f") in refs)
        poke(machine, geo.inode_block_daddr(ino),
             geo.inode_offset_in_block(ino), bytes(INODE_SIZE))
        with recording(machine) as recorded:
            run_user(machine, touch(machine.fs, "/g"), name="touch again")
        assert recorded.windows
        # the base image is judged from scratch: reported once, in the
        # placeholder window, and not as "freed since the audit before"
        [hit] = monitor_violations(recorded, geo,
                                   machine.scheme.crash_guarantees)
        assert (hit.rule, hit.when, hit.lbn, hit.nsectors) == (
            "dirent-uninitialized", 0.0, -1, 0)
        assert f"unallocated inode {ino}" in hit.message

    @pytest.mark.parametrize("ending", ["quiesces", "victim crashes"])
    def test_record_run_leaves_the_observers_as_it_found_them(self, ending):
        machine = build_machine("nvram")
        mine = MediaLog()
        machine.disk.write_observers.append(mine.entries.append)

        def victim():
            yield from build_workload(machine, "microbench", 0, 4)
            if ending == "victim crashes":
                raise KeyError("victim bug")

        if ending == "quiesces":
            recorded = record_run(machine, victim())
            # an observer installed before the recording sees the
            # recording's own records
            assert all(a is b for a, b in zip(mine.entries,
                                              recorded.windows))
            assert len(mine) == len(recorded.windows) > 0
        else:
            with pytest.raises(ProcessCrashed):
                record_run(machine, victim())
        assert machine.disk.write_observers == [mine.entries.append]
        assert machine.scheme.on_survivor is None


class TestControls:
    def test_noorder_negative_control_fires(self):
        # No Order declares no ordering: the monitor MUST see rule hits
        # (else it is vacuously silent), all inside the declaration
        report = explore("noorder", "microbench", seed=0,
                         max_points=8, monitor=True)
        assert report.monitor == "online"
        assert report.monitor_violations, "monitor must fire for noorder"
        assert all(v.expected for v in report.monitor_violations)
        assert not report.monitor_unexpected
        assert report.exit_status == 0

    @pytest.mark.parametrize("scheme", SAFE_SCHEMES)
    def test_guaranteed_schemes_stay_clean_across_seeds(self, scheme):
        for seed in (0, 7):
            report = explore(scheme, "microbench", seed=seed,
                             max_points=4, monitor=True)
            assert report.monitor == "online"
            assert report.monitor_windows > 0
            assert report.monitor_violations == (), (
                scheme, seed,
                [v.format() for v in report.monitor_violations])

    def test_nvram_gets_a_verdict(self):
        # the mirror is part of every synthesized image, so NVRAM is
        # judged like every other scheme: at each durable commit end
        for workload in sorted(WORKLOADS):
            for seed in (0, 7):
                report = explore("nvram", workload, seed=seed,
                                 max_points=1, monitor=True)
                assert report.monitor == "online"
                assert report.monitor_windows > 0
                assert report.monitor_violations == (), (
                    workload, seed,
                    [v.format() for v in report.monitor_violations])

    def test_nvram_verdict_rests_on_the_mirror(self):
        # the same media stream judged without its survivors fires: the
        # clean verdict above is the mirror's doing, not a blind monitor
        machine = build_machine("nvram")
        recorded = record_run(machine,
                              build_workload(machine, "microbench", 0, None))
        geo = machine.config.fs_geometry
        guarantees = machine.scheme.crash_guarantees
        assert recorded.media_log.survivors
        assert monitor_violations(recorded, geo, guarantees) == []
        recorded.media_log.survivors.clear()
        assert monitor_violations(recorded, geo, guarantees)

    def test_monitor_off_by_default(self):
        report = explore("conventional", "microbench", seed=0,
                         max_points=4)
        assert report.monitor == "off"
        assert report.monitor_windows == 0


@pytest.mark.slow
class TestControlsFullSweeps:
    """Acceptance-grade: safe schemes clean under churn, across seeds."""

    @pytest.mark.parametrize("scheme", SAFE_SCHEMES)
    def test_guaranteed_schemes_clean_under_churn(self, scheme):
        for seed in (0, 7, 23):
            report = explore(scheme, "churn", seed=seed,
                             max_points=24, monitor=True)
            assert report.monitor_violations == (), (
                scheme, seed,
                [v.format() for v in report.monitor_violations])

    def test_noorder_fires_under_churn_across_seeds(self):
        for seed in (0, 7, 23):
            report = explore("noorder", "churn", seed=seed,
                             max_points=24, monitor=True)
            assert report.monitor_violations
            assert not report.monitor_unexpected
