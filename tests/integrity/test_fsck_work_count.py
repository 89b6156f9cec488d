"""fsck's decoding work, pinned as call counts.

A from-scratch check used to probe every bitmap bit (three Python calls
each) and unpack every inode slot, free ones included.  It now reads each
bitmap as one int and unpacks only allocated slots; a per-bit or per-slot
loop creeping back in fails here rather than at the next benchmark run.
"""

from repro.fs.alloc import CgView
from repro.fs.layout import Dinode
from repro.harness.recording import record_run
from repro.integrity import fsck
from repro.integrity.explorer import (
    build_machine,
    build_workload,
    enumerate_crash_points,
)
from repro.integrity.medialog import ImageSynthesizer


def test_one_fsck_probes_no_bit_and_unpacks_only_allocated_slots(monkeypatch):
    machine = build_machine("softupdates")
    recorded = record_run(machine,
                          build_workload(machine, "microbench", 0, 24),
                          capture_media=True)
    # a crash halfway through: files, stale bitmap bits and leaks
    points = enumerate_crash_points(recorded)
    image = ImageSynthesizer(recorded.base_image, recorded.media_log) \
        .image_at(points[len(points) // 2].time)

    calls = {"frag_used": 0, "inode_used": 0, "unpack": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(CgView, "frag_used",
                        counted("frag_used", CgView.frag_used))
    monkeypatch.setattr(CgView, "inode_used",
                        counted("inode_used", CgView.inode_used))
    monkeypatch.setattr(Dinode, "unpack",
                        counted("unpack", Dinode.unpack))
    report = fsck(image, machine.config.fs_geometry)

    assert len(report.inodes) > 5 and report.warnings, \
        "the image must give the checker something to decode"
    assert calls["frag_used"] == 0
    assert calls["inode_used"] == 0
    assert calls["unpack"] <= len(report.inodes) + 1
