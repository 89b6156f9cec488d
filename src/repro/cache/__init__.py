"""Buffer cache and syncer daemon.

The buffer cache is the junction where every ordering scheme acts: the
conventional scheme's synchronous writes, the flag/chains schemes' decorated
asynchronous writes, and the delayed-write schemes' dirty buffers all flow
through :class:`BufferCache`.  The write-lock behaviour of section 3.3 (and
its ``-CB`` block-copy remedy) lives here, as does the syncer daemon of
section 2 (one-second wakeups, mark-then-write sweeps).  Soft updates'
workitem queue of section 4.2 is its manager's, not the syncer's.
"""

from repro.cache.buffer import Buffer
from repro.cache.buffercache import BufferCache
from repro.cache.syncer import SyncerDaemon

__all__ = ["Buffer", "BufferCache", "SyncerDaemon"]
