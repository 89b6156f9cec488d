"""Scheme census: a hook holds its scheme's ordering decision, nothing else.

The bookkeeping every scheme repeats -- the in-memory release of an inode
and the free of a moved fragment run -- lives once, on
``OrderingScheme`` (``_released``, ``_free_moved``), and the journal log is
decoded in one module, ``repro.fs.journal``.  These tests walk the source
so neither can drift back into the scheme modules or the monitor.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[2] / "src" / "repro"
ORDERING = PACKAGE / "ordering"

#: modules allowed to release an inode or free a moved run themselves
RELEASE_OWNERS = {
    # the shared helpers themselves
    "base.py": "defines _released and _free_moved",
    # frees the runs *before* the dinode reset is even built: the unsafe
    # order is the scheme (its declaration says so)
    "noorder.py": "releases in its own, unordered sequence",
    # never frees the inode record at release time: the bitmap bits and
    # the slot clear from the dependency manager once the reset is durable
    "softupdates": "defers the frees to its dependency records",
}


def _calls(path: Path):
    """``(attribute name, call node)`` for every ``x.name(...)`` call."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and isinstance(node.func,
                                                     ast.Attribute):
            yield node.func.attr, node


def _frees_moved_run(name: str, call: ast.Call) -> bool:
    return (name == "free_frags" and bool(call.args)
            and isinstance(call.args[0], ast.Attribute)
            and call.args[0].attr == "old_daddr")


def test_only_the_release_owners_release():
    """``fs.collect_blocks``, ``fs.clear_dinode`` and freeing
    ``ctx.old_daddr`` appear in the scheme modules only where
    :data:`RELEASE_OWNERS` says why."""
    for name in RELEASE_OWNERS:
        assert (ORDERING / name).exists(), f"stale exception {name}"
    offenders = []
    for path in sorted(ORDERING.rglob("*.py")):
        where = path.relative_to(ORDERING)
        if where.parts[0] in RELEASE_OWNERS:
            continue
        for name, call in _calls(path):
            if (name in ("collect_blocks", "clear_dinode")
                    or _frees_moved_run(name, call)):
                offenders.append(f"{where}:{call.lineno} {name}")
    assert not offenders, offenders


def test_only_the_codec_decodes_the_log():
    """Outside ``fs/journal.py`` nothing parses a journal descriptor: the
    scan hands its callers the overlay and the open record's images."""
    codec = PACKAGE / "fs" / "journal.py"
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path == codec:
            continue
        offenders += [f"{path.relative_to(PACKAGE)}:{call.lineno}"
                      for name, call in _calls(path)
                      if name == "parse_descriptor"]
    assert not offenders, offenders
