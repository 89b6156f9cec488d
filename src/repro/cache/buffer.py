"""The buffer: one cached run of disk fragments.

Buffers are identified by their starting fragment address (``daddr``) and
have a size that is a whole number of fragments -- matching FFS, where a
cached "block" may be a full block or a fragment run.  A buffer is held
exclusively (``busy``) while a process reads or modifies it, exactly like the
B_BUSY discipline of the UNIX buffer cache; that lock is what makes
section 3.3's write-lock stalls happen when a buffer is also the source of an
in-flight disk write.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.sim.engine import Engine
from repro.sim.primitives import WaitQueue


class Buffer:
    """A cached, byte-addressable image of ``size`` bytes at fragment ``daddr``.

    A buffer carries no ordering hooks: the cache hands every write it
    issues, and every completion, to the mounted scheme
    (``OrderingScheme.write_starting`` / ``write_done``), which keeps its
    own per-block state.
    """

    __slots__ = ("daddr", "size", "data", "valid", "dirty", "busy", "marked",
                 "write_outstanding", "hold_count", "waitq", "dirtied_at",
                 "last_release", "owner", "flush_deps", "error", "dir_index")

    def __init__(self, engine: Engine, daddr: int, size: int) -> None:
        self.daddr = daddr
        self.size = size
        self.data = bytearray(size)
        #: data reflects disk (or newer in-memory) contents
        self.valid = False
        #: in-memory contents newer than disk
        self.dirty = False
        #: exclusively held (B_BUSY) by a process or a non-CB write
        self.busy = False
        #: syncer two-pass sweep mark
        self.marked = False
        #: a disk write of this buffer is queued or in flight
        self.write_outstanding = False
        #: >0 pins the buffer in the cache (soft updates dependency anchors)
        self.hold_count = 0
        self.waitq = WaitQueue(engine)
        #: request ids the *next* write of this buffer must depend on
        #: (scheduler chains; attached and cleared by the cache at issue)
        self.flush_deps: set[int] = set()
        self.dirtied_at: float = -1.0
        self.last_release: float = 0.0
        #: debugging: name of the process holding the buffer
        self.owner: str = ""
        #: B_ERROR analogue: error code of the last completed write of this
        #: buffer (None = succeeded); set by the cache at I/O completion so
        #: the scheme's ``write_done`` and waiting writers see the failure
        self.error: Optional[str] = None
        #: host-side mirror of a directory block (repro.fs.directory.DirIndex,
        #: None until built).  The file system edits ``data`` and the mirror
        #: together; whoever overwrites ``data`` any other way calls
        #: :meth:`fill` or :meth:`data_replaced`
        self.dir_index: Any = None

    def data_replaced(self) -> None:
        """``data`` was overwritten, grown or disowned other than through the
        mirror (fill, extension, invalidation): drop what was decoded."""
        self.dir_index = None

    def fill(self, image: bytes) -> None:
        """Overwrite the whole of ``data`` (disk read, fresh allocation)."""
        self.data[:] = image
        self.valid = True
        self.data_replaced()

    def mark_dirty(self, now: float) -> None:
        """Mark newer-than-disk, stamping when the buffer first dirtied."""
        if not self.dirty:
            self.dirtied_at = now
        self.dirty = True

    def __repr__(self) -> str:
        flags = "".join(flag for flag, on in [
            ("V", self.valid), ("D", self.dirty), ("B", self.busy),
            ("W", self.write_outstanding), ("H", self.hold_count > 0),
        ] if on)
        return f"<Buffer daddr={self.daddr} size={self.size} [{flags}]>"
