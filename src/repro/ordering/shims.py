"""Rule-breaking shim schemes: seeded mutations for the monitor's tests.

Each shim is the conventional scheme with exactly ONE ordered write
delayed or inverted -- a seeded ordering breach -- while still *declaring*
the safe ``allows_corruption=False`` guarantees.  A correct monitor must
therefore catch each breach as an **unexpected** violation at commit time
(and the crash sweep's fsck must catch it post-crash): these schemes are
the mutation tests proving the verification machinery actually fires, not
production orderings.

* :class:`BreakRule3Scheme` -- the directory entry is forced to disk
  *before* the new inode's initialization (rule 3 inverted): a crash in
  between leaves an entry naming an uninitialized inode.
* :class:`BreakRule1Scheme` -- the inode is freed while the directory
  entry clearing is merely delayed (rule 1 inverted): the free can land
  before the entry clears, leaving a dangling reference.
* :class:`BreakRule2Scheme` -- blocks return to the free pool while the
  on-disk inode still points at them (rule 2 inverted): a later
  allocation reuses a fragment the old owner never disowned on disk.

Rules 1 and 2 each drop one edge, so their shims override only
``_ordered_write``, turning the edge named ``link_removed`` or
``release_inode`` into a plain delayed write; rule 3's shim swaps the
order of two writes, so it overrides the hook.
"""

from __future__ import annotations

from typing import Generator

from repro.ordering.conventional import ConventionalScheme
from repro.ordering.guarantees import CrashGuarantees


class BreakRule3Scheme(ConventionalScheme):
    """Dirent first, inode later: 'never point to an uninitialized
    structure' violated on every create."""

    name = "Shim(rule 3 broken)"
    # the lie under test: declares itself safe while breaking rule 3
    declared_guarantees = CrashGuarantees(allows_corruption=False)

    def link_added(self, dp, dbuf, offset, ip, new_inode: bool) -> Generator:
        ibuf = yield from self._inode_image(ip, dbuf)
        # BREACH: the entry is forced out first; the inode it names
        # follows lazily through the syncer
        yield from self._ordered_write(dbuf, "link_added", ibuf)
        self.fs.cache.bdwrite(ibuf)


class BreakRule1Scheme(ConventionalScheme):
    """Free the inode while the entry clear is still delayed: 'never reset
    the old pointer before the new value is written' violated on every
    remove."""

    name = "Shim(rule 1 broken)"
    declared_guarantees = CrashGuarantees(allows_corruption=False)

    def _ordered_write(self, buf, point, *held) -> Generator:
        if point != "link_removed":
            return super()._ordered_write(buf, point, *held)
        # BREACH: the cleared entry is merely delayed; the link drop (and
        # a possible inode free) proceeds immediately
        self.fs.cache.bdwrite(buf)
        return ()


class BreakRule2Scheme(ConventionalScheme):
    """Free the blocks while the on-disk inode still points at them:
    'never reuse a resource before nullifying all pointers' violated on
    every delete."""

    name = "Shim(rule 2 broken)"
    declared_guarantees = CrashGuarantees(allows_corruption=False)

    def _ordered_write(self, buf, point, *held) -> Generator:
        if point != "release_inode":
            return super()._ordered_write(buf, point, *held)
        # BREACH: the pointer reset is merely delayed while the blocks
        # return to the free pool at once -- a later allocation can land
        # on disk before the old owner's on-disk pointers clear
        self.fs.cache.bdwrite(buf)
        return ()


#: mutation-test registry: shim name -> (scheme class, rule key the
#: monitor must attribute the breach to)
SHIMS = {
    "shim-rule1": (BreakRule1Scheme, "free-while-referenced"),
    "shim-rule2": (BreakRule2Scheme, "reuse-before-nullify"),
    "shim-rule3": (BreakRule3Scheme, "dirent-uninitialized"),
}
