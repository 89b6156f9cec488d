"""fsck recovers a journaled crash image the way mount and repair do.

fsck and the stale-data walk read a journaled image through
:class:`repro.integrity.fsck.RecoveredView`, which patches the committed
log into what each read returns and writes nothing; mount and
:func:`repro.integrity.fsck.repair` recover through
:func:`repro.fs.journal.replay_into`, which writes it home in place and
retires the log.  Below the journal area the two must read the same at
every crash point of a Journaling sweep, and the raw image must stay as it
was.  A checksum-valid entry naming a fragment past the file system is
recovered nowhere and breaks no audit.
"""

from repro.fs import journal
from repro.fs.layout import FileType
from repro.harness.recording import record_run
from repro.integrity.explorer import (
    build_machine,
    build_workload,
    enumerate_crash_points,
)
from repro.integrity.fsck import RecoveredView, fsck, scan_log
from repro.integrity.medialog import ImageSynthesizer
from repro.integrity.secrets import SECRET, find_secret_leaks


def _journal_sweep(ops=6):
    machine = build_machine("journal")
    recorded = record_run(machine,
                          build_workload(machine, "microbench", 0, ops),
                          capture_media=True)
    geo = machine.config.fs_geometry
    synthesizer = ImageSynthesizer(recorded.base_image, recorded.media_log)
    points = sorted(enumerate_crash_points(recorded),
                    key=lambda p: (p.time, p.index))
    return geo, ((point, synthesizer.image_at(point.time))
                 for point in points)


def _replayed(image, geo):
    """A snapshot of *image* recovered as mount and repair recover it."""
    spf = geo.frag_size // image.geometry.sector_size
    replayed = image.snapshot()
    journal.replay_into(
        journal.scan_journal(
            lambda daddr, n: replayed.read(daddr * spf, n * spf), geo),
        lambda daddr, data: replayed.write(daddr * spf, data),
        geo)
    return replayed


def test_fsck_recovers_what_replay_recovers_at_every_crash_point():
    geo, sweep = _journal_sweep()
    spf = geo.frag_size // 512
    home = geo.journal_start * spf  # every sector below the journal area
    points = overlaid = 0
    for point, image in sweep:
        raw = image.read(0, home)
        scan = scan_log(image, geo)
        recovered = RecoveredView(image).recover(geo, scan)
        assert recovered.read(0, home) == _replayed(image, geo).read(
            0, home), f"point #{point.index} ({point.label})"
        assert image.read(0, home) == raw  # the crash image is untouched
        points += 1
        overlaid += bool(scan.overlay)
    assert points > 100 and overlaid > 50


def _with_committed_entries(image, geo, images):
    """*image* with one more committed transaction at its log head,
    carrying *images* (home fragment -> bytes)."""
    spf = geo.frag_size // image.geometry.sector_size
    frag = geo.frag_size
    scan = scan_log(image, geo)
    entries = [journal.Entry(journal.IMAGE, daddr, 1) for daddr in images]
    extent = journal.record_extent(entries)
    pos = scan.head_pos
    if pos + extent > geo.journal_frags - 1:
        pos = 0
    desc = journal.descriptor_bytes(frag, scan.head_seq, entries)
    payload = b"".join(images.values())
    at = (geo.journal_start + 1 + pos) * spf
    image.write(at, desc + payload + journal.commit_bytes(
        frag, scan.head_seq, journal.txn_checksum(desc, payload)))
    return image


def test_an_entry_past_the_file_system_is_recovered_nowhere():
    geo, sweep = _journal_sweep()
    *_, (_point, image) = sweep  # the last crash point: files to walk
    spf = geo.frag_size // image.geometry.sector_size
    # the first fragment of a regular file, logged with the stale-data
    # marker: the leak walk sees it only in the recovered image
    inside = next(din.direct[0] for din in fsck(image, geo).inodes.values()
                  if din.safe_ftype is FileType.REGULAR and din.size)
    logged = SECRET * (geo.frag_size // len(SECRET))
    outside = (1 << 32) - 1
    assert outside >= geo.total_frags
    plain = _with_committed_entries(image.snapshot(), geo, {inside: logged})
    both = _with_committed_entries(image.snapshot(), geo,
                                   {outside: logged, inside: logged})
    report = fsck(both, geo)
    assert outside in report.journal.overlay
    assert inside in report.journal.overlay
    # the in-FS entry is recovered, the out-of-FS one changes no verdict
    assert RecoveredView(both).recover(geo, report.journal).read(
        inside * spf, spf) == logged
    assert both.read(inside * spf, spf) != logged
    assert report.findings == fsck(plain, geo).findings
    leaks = find_secret_leaks(both, geo, report)
    assert leaks and leaks == find_secret_leaks(plain, geo)
