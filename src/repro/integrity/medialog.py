"""The media write-log: every sector that reached the platters, time-stamped.

Crash exploration used to answer "what would the disk hold if power failed
at instant *t*?" by re-simulating the entire workload prefix up to *t* --
O(full replay) per crash point, hundreds of replays per sweep.  The single
recording run already contains the answer: platter contents only change
when the drive lays a sector down, the drive serves one media operation at
a time, and sectors within a transfer land in LBN order, one per
``sector_period``, each protected by its own ECC (paper, footnote 1).

:class:`MediaLog` captures that stream once
(:func:`repro.harness.recording.recording` hooks :meth:`MediaLog.record`
to the drive), so the log holds the drive's own
:class:`~repro.disk.drive.InFlightWrite` records -- one per write media
operation, carrying the payload, the transfer window geometry, the
*actual* simulated completion instant ``end`` and the sector-prefix
length ``durable`` that persisted.  A metadata write lays down a whole
block to change a few bytes of it, so most sectors repeat one the log
holds: a payload is logged as a tuple of *pooled* sectors, each distinct
content held once.  It is the one record of the media, and
:func:`audited_images` is its one walk: the crash explorer's points and
the ordering monitor's commits (:mod:`repro.integrity.monitor`) are
instants of it.

:class:`ImageSynthesizer` then materializes the crash state at any
instant with **no simulation at all**: base image + the durable prefix of
every window that ended by *t* + the in-flight prefix of the (at most one)
window containing *t*.  The prefix is asked of the drive's own record of
the transfer (``sectors_applied_by``), so the synthesized image is
byte-identical to the one a re-simulation to *t* leaves
(``tests/integrity/replay_oracle.py`` is that reference and
``tests/integrity/test_synthesis_equivalence.py`` holds the proof).

Crash state that is *not* on the platters -- NVRAM's battery-backed mirror
-- is said once, as a second stream, ``MediaLog.survivors``: one
``(time, lbn, sectors | None)`` entry per (pooled) mirror store or drop,
fed by the scheme's ``on_survivor`` observer.  Synthesis replays it to *t*
and writes what is left over the image; nothing else in ``src/`` does.

:func:`audited_images` serves instants in time order through one
:class:`ImageSynthesizer`, so the image is built *incrementally* -- each
instant applies only the sectors committed since the previous one instead
of re-applying the whole log -- and audits each image once.  The
synthesizer says where each image may differ from the one before,
``ImageSynthesizer.changed``: every durable prefix laid down since, the
in-flight prefix, and the throwaway overlays (a transient prefix past
``durable``, the mirror) of both images.  Every sector whose bytes moved
lies inside it (``tests/integrity/test_synthesis_changed.py``), so the
walk hands it to ``Auditor.audit``, which re-reads only what it touches;
no other caller passes it.
"""

from __future__ import annotations

from heapq import merge
from itertools import groupby
from operator import itemgetter

from repro.disk.drive import InFlightWrite
from repro.disk.storage import SectorStore


class MediaLog:
    """Append-only record of every write that reached the media.

    Memory discipline: each distinct sector content is held once.
    :meth:`record` (the drive's observer) and :meth:`survive` (the
    scheme's) swap each payload for a tuple of pooled sectors, so a sector
    the log already holds costs a tuple slot, not 512 bytes; :meth:`close`
    drops the pool's dict when the recording ends.
    """

    def __init__(self, sector_size: int = 512) -> None:
        #: the drive's records, in the order their media operations ended,
        #: each ``data`` a tuple of pooled sectors
        self.entries: list[InFlightWrite] = []
        #: off-media survivors in time order: ``(time, lbn, sectors)``
        #: stores and ``(time, lbn, None)`` drops (empty unless the scheme
        #: keeps battery-backed state)
        self.survivors: list[tuple] = []
        self.sector_size = sector_size
        #: every distinct sector logged, keyed by itself (None once closed)
        self._pool: dict[bytes, bytes] | None = {}

    def _sectors(self, data: bytes) -> tuple[bytes, ...]:
        """*data* as a tuple of its sectors, each the pool's one copy."""
        size = self.sector_size
        chunks = [data[start:start + size]
                  for start in range(0, len(data), size)]
        return tuple(map(self._pool.setdefault, chunks, chunks))

    def record(self, write: InFlightWrite) -> None:
        """Log a finished write, its payload as pooled sectors."""
        write.data = self._sectors(write.data)
        self.entries.append(write)

    def survive(self, when: float, lbn: int, data: bytes | None) -> None:
        """Log a mirror store of *data* at *lbn* (``None``: a drop)."""
        self.survivors.append(
            (when, lbn, None if data is None else self._sectors(data)))

    def close(self) -> None:
        self._pool = None  # the recording is over: the tuples keep the sectors

    # -- instrumentation ---------------------------------------------------
    def __len__(self) -> int:
        return len(self.entries)

    @property
    def payload_bytes(self) -> int:
        """The logical write volume: repeated sectors counted each time."""
        return self.sector_size * sum(len(e.data) for e in self.entries)


class ImageSynthesizer:
    """Incremental crash-image synthesis over a time-sorted point stream.

    The drive serves one media operation at a time, so log windows are
    disjoint and ordered by ``transfer_start``; a cursor walks them once.
    Windows fully retired by the requested instant apply their durable
    prefix to the shared evolving image.  The (at most one) window still
    in flight applies its crash-time prefix:

    * prefix <= durable -- those sectors persist anyway when the window
      retires, with identical bytes, so they go onto the shared image too
      (this is what makes consecutive points within one window O(delta));
    * prefix > durable (a transient fault's pass: sectors visible under
      the head mid-window but revoked at completion) -- the prefix goes
      onto a throwaway snapshot so the shared image never holds bytes the
      platters would not keep.

    A second cursor replays ``log.survivors`` into the mirror a power
    failure at the requested instant would leave (insertion-ordered, a
    re-store moves the entry to the end, as in ``NvramScheme._mirror``).
    A non-empty mirror is written over a *snapshot*: a survivor dropped
    later must not linger on the shared image.

    Instants must be requested in non-decreasing order (the explorer
    verifies in time order); going backwards raises.
    """

    def __init__(self, base: SectorStore, log: MediaLog) -> None:
        self._image = base.snapshot()
        self._entries = sorted(log.entries, key=lambda e: e.transfer_start)
        self._cursor = 0
        self._survivors = log.survivors
        self._survivor_cursor = 0
        self._mirror: dict[int, bytes] = {}
        self._last = float("-inf")
        #: ``(lbn, nsectors)`` ranges outside which the last image returned
        #: holds the bytes of the one before it (None for the first image)
        self.changed: list[tuple[int, int]] | None = None
        self._overlays = None  # the last image's throwaway overlays

    def image_at(self, when: float) -> SectorStore:
        """The surviving image for a power failure at *when*.

        Returns the shared evolving store (or a snapshot overlaid with a
        revocable transient prefix and/or the off-media survivors);
        callers must treat it as read-only -- ``fsck`` is; ``repair`` works
        in place, so repair a ``snapshot()``.  ``changed`` then says where
        it may differ from the image returned before (module docstring).
        """
        if when < self._last:
            raise ValueError(
                f"synthesis points must be time-sorted ({when} < {self._last})")
        self._last = when
        image = self._image
        entries = self._entries
        cursor = self._cursor
        changed = list(self._overlays or ())
        while cursor < len(entries) and entries[cursor].end <= when:
            entry = entries[cursor]
            _lay_down(image, entry, entry.durable)
            changed.append((entry.lbn, entry.durable))
            cursor += 1
        self._cursor = cursor
        overlays = []
        if cursor < len(entries):
            entry = entries[cursor]
            applied = entry.sectors_applied_by(when)
            if applied:
                if applied > entry.durable:
                    image = image.snapshot()
                    overlays.append((entry.lbn, applied))
                else:
                    changed.append((entry.lbn, applied))
                _lay_down(image, entry, applied)
        if self._survivors:
            mirror = self.mirror_at(when)
            if mirror and image is self._image:
                image = image.snapshot()
            for lbn, data in mirror.items():
                image.write(lbn, data)
                overlays.append((lbn, len(data) // image.geometry.sector_size))
        self.changed = None if self._overlays is None else changed + overlays
        self._overlays = overlays
        return image

    def mirror_at(self, when: float) -> dict[int, bytes]:
        """Off-media survivors at *when*: ``{lbn: bytes}`` in store order.

        ``<=`` matches ``Engine.run_to``, which processes every event
        stamped at or before its target.
        """
        survivors = self._survivors
        mirror = self._mirror
        cursor = self._survivor_cursor
        while cursor < len(survivors) and survivors[cursor][0] <= when:
            _time, lbn, data = survivors[cursor]
            mirror.pop(lbn, None)
            if data is not None:
                mirror[lbn] = b"".join(data)
            cursor += 1
        self._survivor_cursor = cursor
        return mirror


def _lay_down(image: SectorStore, entry: InFlightWrite, count: int) -> None:
    """Write the first *count* of *entry*'s pooled sectors onto *image*."""
    if count:
        image.write(entry.lbn, b"".join(entry.data[:count]))


def audited_images(base: SectorStore, log: MediaLog, auditor, *streams):
    """``(tag, image, report)`` for each ``(time, tag)`` of the time-sorted
    *streams*, merged (stably): one synthesizer pass, one ``auditor.audit``
    per distinct time (``-inf`` is the base image).  An image is read-only
    and valid until the walk moves on (``ImageSynthesizer.image_at``)."""
    synthesizer = ImageSynthesizer(base, log)
    instants = merge(*streams, key=itemgetter(0))
    for when, group in groupby(instants, key=itemgetter(0)):
        image = synthesizer.image_at(when)
        report = auditor.audit(image, synthesizer.changed)
        for _when, tag in group:
            yield tag, image, report
