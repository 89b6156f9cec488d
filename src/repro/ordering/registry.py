"""The single scheme registry: every harness surface enumerates this.

One scheme, one entry.  The benchmark runner (display names, standard
configurations), the crash explorer (slug -> class), the fault sweep
(default scheme list) and the trace CLI (slug aliases) all derive their
lists from here, so a scheme registered once is visible everywhere --
``tests/ordering/test_registry.py`` holds them to it.  The rule-breaking
mutation shims (:data:`repro.ordering.shims.SHIMS`) are deliberately not
registered: they exist to *fail* sweeps, not to appear in tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.ordering.base import OrderingScheme
from repro.ordering.conventional import ConventionalScheme
from repro.ordering.guarantees import CrashGuarantees
from repro.ordering.journal import JournalScheme
from repro.ordering.noorder import NoOrderScheme
from repro.ordering.nvram import NvramScheme
from repro.ordering.schedchains import SchedulerChainsScheme
from repro.ordering.schedflag import SchedulerFlagScheme
from repro.ordering.softupdates import SoftUpdatesScheme


@dataclass(frozen=True)
class SchemeInfo:
    """One registered ordering scheme."""

    slug: str
    display_name: str
    cls: type
    #: appears in the section-5 comparison tables and the standard
    #: benchmark grid (nvram is a what-if, not a paper configuration)
    standard: bool = True
    #: whether the standard configuration forwards ``alloc_init`` (No
    #: Order ignores the knob: it orders nothing either way)
    takes_alloc_init: bool = True

    @property
    def guarantees(self) -> CrashGuarantees:
        """The class's static declaration (instances may tighten it)."""
        return self.cls.declared_guarantees

    def build(self) -> OrderingScheme:
        """A default-configured instance (explorer / fault-sweep style)."""
        return self.cls()

    def build_standard(self,
                       alloc_init: Optional[bool] = None) -> OrderingScheme:
        """An instance in the standard benchmark configuration: the
        constructor's defaults (the scheduler schemes default to the -CB
        block-copy enhancement) with *alloc_init* forwarded."""
        if self.takes_alloc_init and alloc_init is not None:
            return self.cls(alloc_init=alloc_init)
        return self.cls()


#: slug -> info, in the section-5 comparison order (No Order last: it is
#: the table baseline the other rows are normalized against)
REGISTRY: dict[str, SchemeInfo] = {
    info.slug: info for info in (
        SchemeInfo("conventional", "Conventional", ConventionalScheme),
        SchemeInfo("flag", "Scheduler Flag", SchedulerFlagScheme),
        SchemeInfo("chains", "Scheduler Chains", SchedulerChainsScheme),
        SchemeInfo("softupdates", "Soft Updates", SoftUpdatesScheme),
        SchemeInfo("journal", "Journaling", JournalScheme),
        SchemeInfo("noorder", "No Order", NoOrderScheme,
                   takes_alloc_init=False),
        SchemeInfo("nvram", "NVRAM", NvramScheme, standard=False,
                   takes_alloc_init=False),
    )
}


def standard_display_names() -> list[str]:
    """Display names of the standard comparison, in table order."""
    return [info.display_name for info in REGISTRY.values() if info.standard]


def standard_slugs() -> list[str]:
    """Slugs of the standard comparison (the fault sweep's default set)."""
    return [info.slug for info in REGISTRY.values() if info.standard]


def scheme_classes() -> dict[str, type]:
    """slug -> class, every registered scheme (the explorer's table)."""
    return {info.slug: info.cls for info in REGISTRY.values()}


def display_aliases() -> dict[str, str]:
    """slug -> display name (the trace CLI's alias table)."""
    return {info.slug: info.display_name for info in REGISTRY.values()}


def by_display_name(name: str) -> SchemeInfo:
    for info in REGISTRY.values():
        if info.display_name == name:
            return info
    raise ValueError(f"unknown scheme {name!r}")
