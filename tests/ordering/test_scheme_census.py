"""Scheme census: a hook holds its scheme's ordering decision, nothing else.

The bookkeeping every scheme repeats -- the in-memory release of an inode
and the free of a moved fragment run -- lives once, on
``OrderingScheme`` (``_released``, ``_free_moved``), and the journal log is
decoded in one module, ``repro.fs.journal``.  Conventional's ordering
edges each go through one ``_ordered_write(buf, point, *held)`` call, so
Scheduler Flag and the rule-breaking shims are that one method swapped.
These tests walk the source so none of this can drift back into the
scheme modules or the monitor.
"""

import ast
import inspect
from pathlib import Path

from repro.ordering import SchedulerFlagScheme
from repro.ordering.shims import BreakRule1Scheme, BreakRule2Scheme

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


#: the hooks through which the file system hands a scheme its four
#: structural changes (plus mkdir's '..')
STRUCTURAL_HOOKS = {"link_added", "dotdot_link_added", "link_removed",
                    "block_allocated", "release_inode", "truncated"}


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


def _write_calls_outside_ordered_write(path: Path):
    """``bwrite`` / ``bawrite`` calls in *path* not inside a function named
    ``_ordered_write``."""
    tree = ast.parse(path.read_text())
    inside = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.FunctionDef)
                and node.name == "_ordered_write"):
            inside.update(ast.walk(node))
    return [f"{path.name}:{node.lineno} {node.func.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("bwrite", "bawrite")
            and node not in inside]


def test_conventional_orders_every_edge_through_ordered_write():
    """Conventional, Scheduler Flag and the shims issue an ordering write
    only inside ``_ordered_write``: a hook names the edge, the method
    decides how it is ordered."""
    offenders = []
    for name in ("base.py", "conventional.py", "schedflag.py", "shims.py"):
        offenders += _write_calls_outside_ordered_write(ORDERING / name)
    assert not offenders, offenders


def test_one_flagged_write_site():
    """The ordering flag reaches the driver from one call in ``src/``:
    Scheduler Flag's ``_ordered_write``."""
    sites = [f"{path.relative_to(PACKAGE)}:{call.lineno}"
             for path in sorted(PACKAGE.rglob("*.py"))
             for _name, call in _calls(path)
             for keyword in call.keywords
             if keyword.arg == "flag"
             and isinstance(keyword.value, ast.Constant)
             and keyword.value.value is True]
    assert len(sites) == 1 and sites[0].startswith(
        "ordering/schedflag.py:"), sites


def test_flag_is_conventional_with_one_method_swapped():
    """Scheduler Flag defines no structural hook of its own; the rule 1
    and rule 2 shims define only ``_ordered_write``."""
    assert not STRUCTURAL_HOOKS & set(vars(SchedulerFlagScheme))
    for shim in (BreakRule1Scheme, BreakRule2Scheme):
        methods = {name for name, value in vars(shim).items()
                   if inspect.isfunction(value)}
        assert methods == {"_ordered_write"}, (shim.__name__, methods)
