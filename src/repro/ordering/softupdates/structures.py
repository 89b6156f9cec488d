"""Soft updates dependency structures (paper appendix).

The paper's implementation uses a generic record with a type tag (11 types)
and type-specific values; we keep one small class per role, with the same
semantics:

* :class:`AllocDep` -- ``allocdirect`` / ``allocindirect``: a new block
  pointer that must not reach the disk before the pointed-to block is
  initialized.  Its ``allocsafe`` half is the entry in the manager's
  by-data-block index that marks it satisfied on the block's first write.
* :class:`DirAdd` -- ``add``/``addsafe``: a new directory entry that must
  not reach the disk before the pointed-to inode does.
* :class:`DirRem` -- ``remove``: a cleared entry whose inode link count may
  only drop after the cleared block is on disk.
* :class:`FreeWork` -- ``freeblocks``/``freefile``: resources whose bitmap
  bits may only clear after the reset pointers are on disk.
* :class:`InodeDepState`, :class:`PageDepState`, :class:`IndirDepState` --
  the "organizational" structures: per-inode-block, per-directory-block and
  per-indirect-block anchors holding the records above, plus the in-flight
  batches snapshotted at each write issue.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

#: byte offsets inside the packed 128-byte dinode (see layout._DINODE_FMT)
DINODE_SIZE_AT = 8
DINODE_DIRECT_AT = 28
DINODE_SINDIRECT_SLOT = 12
DINODE_DINDIRECT_SLOT = 13
DINODE_SINDIRECT_AT = 76
DINODE_DINDIRECT_AT = 80


def dinode_slot_offset(slot: int) -> int:
    """Byte offset of pointer *slot* (0-11 direct, 12 single, 13 double)."""
    if 0 <= slot < 12:
        return DINODE_DIRECT_AT + 4 * slot
    if slot == DINODE_SINDIRECT_SLOT:
        return DINODE_SINDIRECT_AT
    if slot == DINODE_DINDIRECT_SLOT:
        return DINODE_DINDIRECT_AT
    raise ValueError(f"bad dinode pointer slot {slot}")


@dataclass
class AllocDep:
    """allocdirect / allocindirect (+ its allocsafe registration)."""

    #: ("inode", ino) or ("indir", indirect daddr)
    owner: tuple
    slot: int
    new_daddr: int
    old_daddr: int
    #: file size to roll back to while unsatisfied (None: leave size alone)
    old_size: Optional[int]
    #: the data block is initialized on disk
    satisfied: bool = False
    #: runs to free once this dep clears (fragment extension by move)
    free_on_clear: list[tuple[int, int]] = field(default_factory=list)


@dataclass
class DirAdd:
    """add/addsafe: entry at *offset* (block-relative) pointing at *ino*."""

    dir_daddr: int
    offset: int
    ino: int
    #: the pointed-to inode has reached stable storage since this add
    inode_written: bool = False


@dataclass
class DirRem:
    """remove: once the cleared block is written, drop *ip*'s link."""

    ip: object  # Inode; kept loose to avoid an import cycle


@dataclass
class FreeWork:
    """freeblocks/freefile: bitmap releases gated on the inode reset write."""

    runs: list[tuple[int, int]]
    ino: Optional[int]


@dataclass
class InodeDepState:
    """Anchor for one inode's dependencies (paper: inodedep)."""

    ino: int
    alloc: dict[int, AllocDep] = field(default_factory=dict)
    pending_adds: list[DirAdd] = field(default_factory=list)
    frees: list[FreeWork] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not (self.alloc or self.pending_adds or self.frees)


@dataclass
class PageDepState:
    """Anchor for one directory block's dependencies (paper: pagedep)."""

    daddr: int
    adds: dict[int, DirAdd] = field(default_factory=dict)
    removes: list[DirRem] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not (self.adds or self.removes)


@dataclass
class IndirDepState:
    """Anchor for one indirect block's dependencies (paper: indirdep)."""

    daddr: int
    alloc: dict[int, AllocDep] = field(default_factory=dict)

    @property
    def empty(self) -> bool:
        return not self.alloc


@dataclass
class InFlight:
    """What one issued disk write of a tracked buffer carried.

    ``removes`` and ``frees`` are *moved out* of their live anchors at
    write issue (the write is what makes them safe to act on), so a failed
    write must requeue them; ``frees`` entries keep their owning inode
    number for exactly that purpose.  The other lists only reference
    records that stay on their anchors until completion retires them.
    """

    adds_intact: list[DirAdd] = field(default_factory=list)
    removes: list[DirRem] = field(default_factory=list)
    alloc_written: list[AllocDep] = field(default_factory=list)
    #: (owner inode number, free work) pairs
    frees: list[tuple[int, FreeWork]] = field(default_factory=list)
    adds_for_inodes: list[DirAdd] = field(default_factory=list)
    rolled_back: bool = False


@dataclass
class TrackedBuffer:
    """Per-buffer bookkeeping: the pinned buffer + its in-flight queue."""

    buf: object
    inflight: deque = field(default_factory=deque)
