"""repro: a reproduction of Ganger & Patt, "Metadata Update Performance in
File Systems" (OSDI 1994) -- soft updates and its competitors, on a
simulated UNIX storage stack built from scratch.

The top-level surface re-exports the pieces most users need:

* :class:`Machine` / :class:`MachineConfig` -- assemble a simulated testbed.
* The ordering schemes: :class:`ConventionalScheme`,
  :class:`SchedulerFlagScheme`, :class:`SchedulerChainsScheme`,
  :class:`SoftUpdatesScheme`, :class:`NoOrderScheme`, and the
  :class:`NvramScheme` extension.
* :func:`fsck` / :func:`repair` -- integrity tooling.
* :class:`FileSystem` and :class:`FsError` -- the syscall layer.

See README.md for a tour and DESIGN.md for the system inventory.
"""

from repro.costs import CostModel
from repro.fs import FileSystem, FSGeometry, FsError, mkfs
from repro.integrity import fsck, repair
from repro.machine import Machine, MachineConfig
from repro.ordering import (
    ConventionalScheme,
    NoOrderScheme,
    NvramScheme,
    OrderingScheme,
    SchedulerChainsScheme,
    SchedulerFlagScheme,
    SoftUpdatesScheme,
)

__version__ = "1.0.0"

__all__ = [
    "ConventionalScheme",
    "CostModel",
    "FSGeometry",
    "FileSystem",
    "FsError",
    "Machine",
    "MachineConfig",
    "NoOrderScheme",
    "NvramScheme",
    "OrderingScheme",
    "SchedulerChainsScheme",
    "SchedulerFlagScheme",
    "SoftUpdatesScheme",
    "fsck",
    "mkfs",
    "repair",
    "__version__",
]
