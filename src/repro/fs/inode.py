"""In-core inodes.

"The file system always copies an inode's contents from the buffer cache
into an in-core (or internal) inode structure before accessing them.  So, the
inode structure manipulated by the file system is always separate from the
corresponding source block for disk writes."  (paper, appendix)

That separation matters: schemes decide when the in-core image is copied to
the inode *block* buffer and written, and soft updates can roll back the
block image without disturbing the in-core copy.
"""

from __future__ import annotations

from typing import Optional

from repro.fs.layout import Dinode, FileType
from repro.sim.engine import Engine
from repro.sim.primitives import Lock


class Inode:
    """An in-core inode: the live ``Dinode`` plus locking and references."""

    __slots__ = ("ino", "din", "lock", "refs", "deleted")

    def __init__(self, engine: Engine, ino: int, din: Dinode) -> None:
        self.ino = ino
        self.din = din
        self.lock = Lock(engine)
        self.refs = 0
        #: set once the inode has been released to the free pool
        self.deleted = False

    @property
    def ftype(self) -> FileType:
        return self.din.ftype

    @property
    def is_dir(self) -> bool:
        return self.din.ftype is FileType.DIRECTORY

    def __repr__(self) -> str:
        return (f"<Inode {self.ino} {self.din.ftype.name.lower()} "
                f"nlink={self.din.nlink} size={self.din.size}>")


class InodeTable:
    """The in-core inode table (iget/iput).

    In-core inodes persist while referenced; unreferenced clean inodes may be
    recycled.  For simulation simplicity the table is unbounded (the paper's
    15-second reload path for soft updates dependency structures is driven by
    the dependency manager's own timer instead).
    """

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self._inodes: dict[int, Inode] = {}

    def get_cached(self, ino: int) -> Optional[Inode]:
        return self._inodes.get(ino)

    def install(self, ino: int, din: Dinode) -> Inode:
        if ino in self._inodes:
            raise RuntimeError(f"inode {ino} already in core")
        inode = Inode(self.engine, ino, din)
        self._inodes[ino] = inode
        return inode

    def drop(self, ino: int) -> None:
        self._inodes.pop(ino, None)

    def __len__(self) -> int:
        return len(self._inodes)

    def values(self) -> list[Inode]:
        return list(self._inodes.values())
