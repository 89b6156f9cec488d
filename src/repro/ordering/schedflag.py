"""Scheduler Flag: asynchronous writes carrying the one-bit ordering flag.

Section 3.1: "Write requests that would previously have been synchronous for
ordering purposes are issued asynchronously with their ordering flags set."
So this scheme is Conventional with its one synchronous primitive,
``_ordered_write``, swapped for a flagged asynchronous write; every hook
is Conventional's.  The driver's :class:`~repro.driver.ordering.FlagPolicy`
gives the flag its meaning (Full / Back / Part, optionally -NR).  Because
the flag constrains every *later-issued* request, the writes that must land
first are issued immediately (flagged) while the dependent updates stay
delayed and are flushed later -- automatically ordered behind the flagged
request.

``semantics`` and ``read_bypass`` build the driver's policy, and the -CB
block-copy enhancement (section 3.3) is ``block_copy``; the defaults are
section 5's headline configuration, Part-NR/CB.
"""

from __future__ import annotations

from typing import Generator

from repro.driver.ordering import FlagPolicy, FlagSemantics
from repro.ordering.conventional import ConventionalScheme


class SchedulerFlagScheme(ConventionalScheme):
    """Asynchronous flagged writes; ordering enforced by the disk scheduler."""

    def __init__(self, alloc_init: bool = False, block_copy: bool = True,
                 semantics: FlagSemantics = FlagSemantics.PART,
                 read_bypass: bool = True) -> None:
        super().__init__(alloc_init=alloc_init)
        self.uses_block_copy = block_copy
        self.semantics = semantics
        self.read_bypass = read_bypass
        self.name = "Scheduler Flag"

    def driver_policy(self) -> FlagPolicy:
        return FlagPolicy(self.semantics, read_bypass=self.read_bypass)

    def _ordered_write(self, buf, point, *held) -> Generator:
        # issued now with the flag set; the dependent writes are issued
        # later, so the driver orders them behind this one.  Nothing
        # blocks on the media, so no EIO can strand the *held* buffers.
        self._bump("ordering.flag_tags")
        return self.fs.cache.bawrite(buf, flag=True)
