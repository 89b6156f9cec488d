"""The metadata-update ordering schemes.

Each scheme plugs into the same file system at the same four structural
change points (block allocation, block deallocation, link addition, link
removal) and decides *how* the affected metadata reaches the disk:

* :class:`NoOrderScheme` -- delayed writes, ordering ignored (section 5's
  baseline; fast and unsafe).
* :class:`ConventionalScheme` -- synchronous writes at every ordering point
  (the classic FFS approach).
* :class:`SchedulerFlagScheme` -- Conventional with each synchronous
  ordering write issued asynchronously with the one-bit ordering flag
  (section 3.1); its ``driver_policy()`` is the
  :class:`~repro.driver.ordering.FlagPolicy` of its ``semantics`` and
  ``read_bypass``.
* :class:`SchedulerChainsScheme` -- asynchronous writes with explicit
  request dependency lists (section 3.2); its ``driver_policy()`` is a
  :class:`~repro.driver.ordering.ChainsPolicy`.
* :class:`SoftUpdatesScheme` -- delayed writes with fine-grained dependency
  records, undo/redo rollback and deferred deallocation (section 4.2 and the
  appendix).
* :class:`JournalScheme` -- write-ahead metadata journaling (section 6's
  "logging" alternative): block images into a reserved log, an ordered
  commit record, lazy checkpointing, recovery by replay.

:data:`REGISTRY` (:mod:`repro.ordering.registry`) is the single source the
harness surfaces -- benchmark runner, crash explorer, fault sweep, trace
CLI -- enumerate schemes from.
"""

from repro.ordering.base import AllocContext, OrderingScheme
from repro.ordering.guarantees import CrashGuarantees
from repro.ordering.noorder import NoOrderScheme
from repro.ordering.conventional import ConventionalScheme
from repro.ordering.schedflag import SchedulerFlagScheme
from repro.ordering.schedchains import SchedulerChainsScheme
from repro.ordering.softupdates import SoftUpdatesScheme
from repro.ordering.nvram import NvramScheme
from repro.ordering.journal import JournalScheme
from repro.ordering.registry import REGISTRY, SchemeInfo

__all__ = [
    "AllocContext",
    "ConventionalScheme",
    "CrashGuarantees",
    "JournalScheme",
    "NoOrderScheme",
    "NvramScheme",
    "OrderingScheme",
    "REGISTRY",
    "SchedulerChainsScheme",
    "SchedulerFlagScheme",
    "SchemeInfo",
    "SoftUpdatesScheme",
]
