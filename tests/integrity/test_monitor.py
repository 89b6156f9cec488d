"""The online ordering monitor: observer-effect-free, chainable, correct.

Three contracts:

1. **Zero simulation impact** (the ``tests/obs/test_equivalence.py``
   discipline): a monitored recording run and a bare one are the *same
   simulation* -- identical write windows, event counts, quiescence time,
   and driver trace, byte for byte.  The monitor only reads commit
   payloads and mutates its own shadow image.
2. **Composition**: the monitor is one entry of the drive's
   ``write_observers`` list beside the media write-log (or several):
   every entry is handed the same record objects in append order,
   ``detach`` removes only the monitor's own entry, and ``record_run``
   leaves the list as it found it however the run ends.
3. **Controls**: ``noorder`` -- which declares no ordering -- must
   produce rule hits (the negative control proves the monitor is not
   vacuously silent), all *within* its declaration; the five guaranteed
   schemes stay violation-free across seeds; NVRAM is refused (its crash
   state is not media-resident, so a media-stream monitor would lie).
"""

import hashlib

import pytest

from repro.fs.layout import INODE_SIZE, ROOT_INO
from repro.harness.recording import record_run
from repro.integrity.explorer import build_machine, build_workload, explore
from repro.integrity.fsck import fsck
from repro.integrity.medialog import MediaLog
from repro.integrity.monitor import OrderingMonitor, monitor_supported
from repro.sim import ProcessCrashed
from tests.conftest import run_user
from tests.integrity.test_fsck import poke

#: every scheme whose crash state lives entirely on the platters
MEDIA_SCHEMES = ["noorder", "conventional", "flag", "chains",
                 "softupdates", "journal"]
SAFE_SCHEMES = ["conventional", "flag", "chains", "softupdates", "journal"]


def make_monitor(machine) -> OrderingMonitor:
    return OrderingMonitor(machine.config.fs_geometry,
                           machine.scheme.crash_guarantees)


def driver_trace_digest(machine) -> str:
    """A byte-exact digest of the completed request trace."""
    h = hashlib.sha256()
    for request in machine.driver.trace:
        h.update(repr((request.id, request.kind.value, request.lbn,
                       request.nsectors, request.flag,
                       sorted(request.depends_on), request.issuer,
                       request.issue_time, request.dispatch_time,
                       request.complete_time,
                       None if request.data is None
                       else hashlib.sha256(request.data).hexdigest()
                       )).encode())
    return h.hexdigest()


class TestObserverEffect:
    @pytest.mark.parametrize("scheme", MEDIA_SCHEMES)
    def test_monitored_run_is_simulation_identical(self, scheme):
        bare_machine = build_machine(scheme)
        bare = record_run(bare_machine,
                          build_workload(bare_machine, "microbench", 0, 12))

        watched_machine = build_machine(scheme)
        watcher = make_monitor(watched_machine)
        watched = record_run(
            watched_machine,
            build_workload(watched_machine, "microbench", 0, 12),
            monitor=watcher)

        # same simulated history, to the last event and timestamp
        assert watched.windows == bare.windows
        assert watched.events_processed == bare.events_processed
        assert watched.quiesce_time == bare.quiesce_time
        assert (driver_trace_digest(watched_machine)
                == driver_trace_digest(bare_machine))
        # and the monitor actually watched the whole stream
        assert watcher.windows_seen == len(watched.windows) > 0

    def test_monitored_run_composes_with_media_capture(self):
        # media log + monitor on one stream: both see every window
        machine = build_machine("conventional")
        watcher = make_monitor(machine)
        recorded = record_run(
            machine, build_workload(machine, "microbench", 0, 12),
            monitor=watcher)
        assert len(recorded.media_log) == watcher.windows_seen
        assert watcher.commits_applied > 0


class TestLifecycle:
    def test_observers_compose_in_append_order(self):
        machine = build_machine("conventional")
        observers = machine.disk.write_observers
        assert observers == []
        first, second = MediaLog(), MediaLog()
        order = []
        observers.append(lambda write: order.append(("first", id(write))))
        observers.append(first.entries.append)
        watcher = make_monitor(machine)
        watcher.attach(machine.disk)
        observers.append(second.entries.append)
        observers.append(lambda write: order.append(("last", id(write))))

        def touch(fs, path):
            yield from fs.write_file(path, b"x" * 4096)
            yield from fs.sync()

        run_user(machine, touch(machine.fs, "/f"), name="touch")
        # every observer saw every write, as the very same objects ...
        assert len(first) == len(second) == watcher.windows_seen > 0
        assert all(a is b for a, b in zip(first.entries, second.entries))
        # ... and for each write the list was walked front to back
        assert order == [(tag, id(write)) for write in first.entries
                         for tag in ("first", "last")]
        # detaching any one entry leaves the others, in order
        watcher.detach(machine.disk)
        assert observers[1:3] == [first.entries.append,
                                  second.entries.append]
        observers.remove(first.entries.append)
        seen = len(second)
        run_user(machine, touch(machine.fs, "/g"), name="touch again")
        assert len(second) > seen
        assert len(first) == watcher.windows_seen == seen

    def test_double_attach_refused(self):
        machine = build_machine("conventional")
        watcher = make_monitor(machine)
        watcher.attach(machine.disk)
        with pytest.raises(RuntimeError):
            watcher.attach(machine.disk)

    def test_detach_without_attach_leaves_other_observers_alone(self):
        machine = build_machine("conventional")
        log = MediaLog()
        machine.disk.write_observers.append(log.entries.append)
        make_monitor(machine).detach(machine.disk)
        assert machine.disk.write_observers == [log.entries.append]
        # nor does a monitor watching another disk unhook this one
        other = build_machine("conventional")
        watcher = make_monitor(other)
        watcher.attach(other.disk)
        watcher.detach(machine.disk)
        assert machine.disk.write_observers == [log.entries.append]
        assert other.disk.write_observers == [watcher._on_commit]

    def test_reattach_starts_from_a_fresh_snapshot_and_baseline(self):
        machine = build_machine("conventional")
        geo = machine.config.fs_geometry
        watcher = make_monitor(machine)

        def touch(fs):
            yield from fs.write_file("/f", b"x" * 4096)
            yield from fs.sync()

        watcher.attach(machine.disk)
        run_user(machine, touch(machine.fs), name="touch")
        watcher.detach(machine.disk)
        assert watcher.clean
        # behind the detached monitor's back, free /f's inode under its entry
        report = fsck(machine.disk.storage, geo)
        ino = next(ino for ino, refs in report.references.items()
                   if (ROOT_INO, "f") in refs)
        poke(machine, geo.inode_block_daddr(ino),
             geo.inode_offset_in_block(ino), bytes(INODE_SIZE))
        watcher.attach(machine.disk)
        # the new snapshot is judged from scratch: reported now, with the
        # attach window, and not as "freed since the audit before"
        [hit] = watcher.violations
        assert (hit.rule, hit.lbn) == ("dirent-uninitialized", -1)
        assert f"unallocated inode {ino}" in hit.message

    def test_refused_attach_leaves_no_recording_hooks(self):
        machine = build_machine("nvram")
        elsewhere = build_machine("conventional")
        watcher = make_monitor(elsewhere)
        watcher.attach(elsewhere.disk)
        with pytest.raises(RuntimeError):
            record_run(machine,
                       build_workload(machine, "microbench", 0, 4),
                       monitor=watcher)
        assert machine.disk.write_observers == []
        assert machine.scheme.on_survivor is None
        assert elsewhere.disk.write_observers == [watcher._on_commit]

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

    def test_supported_only_for_media_resident_schemes(self):
        for scheme in MEDIA_SCHEMES:
            assert monitor_supported(build_machine(scheme)), scheme
        assert not monitor_supported(build_machine("nvram"))


class TestControls:
    def test_noorder_negative_control_fires(self):
        # No Order declares no ordering: the monitor MUST see rule hits
        # (else it is vacuously silent), all inside the declaration
        report = explore("noorder", "microbench", seed=0, jobs=1,
                         max_points=8, monitor=True)
        assert report.monitor == "online"
        assert report.monitor_violations, "monitor must fire for noorder"
        assert all(v.expected for v in report.monitor_violations)
        assert not report.monitor_unexpected
        assert report.exit_status == 0

    @pytest.mark.parametrize("scheme", SAFE_SCHEMES)
    def test_guaranteed_schemes_stay_clean_across_seeds(self, scheme):
        for seed in (0, 7):
            report = explore(scheme, "microbench", seed=seed, jobs=1,
                             max_points=4, monitor=True)
            assert report.monitor == "online"
            assert report.monitor_windows > 0
            assert report.monitor_violations == (), (
                scheme, seed,
                [v.format() for v in report.monitor_violations])

    def test_nvram_reported_unsupported_not_silently_off(self):
        report = explore("nvram", "microbench", seed=0, jobs=1,
                         max_points=4, monitor=True)
        assert report.monitor == "unsupported"
        assert report.monitor_violations == ()

    def test_monitor_off_by_default(self):
        report = explore("conventional", "microbench", seed=0, jobs=1,
                         max_points=4)
        assert report.monitor == "off"
        assert report.monitor_windows == 0


@pytest.mark.slow
class TestControlsFullSweeps:
    """Acceptance-grade: safe schemes clean under churn, across seeds."""

    @pytest.mark.parametrize("scheme", SAFE_SCHEMES)
    def test_guaranteed_schemes_clean_under_churn(self, scheme):
        for seed in (0, 7, 23):
            report = explore(scheme, "churn", seed=seed, jobs=1,
                             max_points=24, monitor=True)
            assert report.monitor_violations == (), (
                scheme, seed,
                [v.format() for v in report.monitor_violations])

    def test_noorder_fires_under_churn_across_seeds(self):
        for seed in (0, 7, 23):
            report = explore("noorder", "churn", seed=seed, jobs=1,
                             max_points=24, monitor=True)
            assert report.monitor_violations
            assert not report.monitor_unexpected
