"""Metric census: one count per event, one table of names.

The rule (``docs/observability.md``): a layer counts into its own plain
attributes, always; observability reads them through the one table in
``repro.obs.registry``; only spans sit behind the ``obs`` check.  These
tests hold the layers, the table and the documentation to it.
"""

import ast
import re
from pathlib import Path

from repro.obs import METRICS, TIMINGS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
LAYER_SOURCES = [path for path in sorted(PACKAGE.rglob("*.py"))
                 if path.relative_to(PACKAGE).parts[0] != "obs"]


def _names_obs(node) -> bool:
    """Does this expression read ``obs`` / ``self._obs`` / ``x.obs``?"""
    return any((isinstance(sub, ast.Name) and sub.id in ("obs", "_obs"))
               or (isinstance(sub, ast.Attribute)
                   and sub.attr in ("obs", "_obs"))
               for sub in ast.walk(node))


def test_no_layer_holds_an_instrument():
    """Nothing outside ``repro/obs`` keeps an ``_m_*`` twin, creates a
    counter / gauge / histogram, or reaches for the metrics table."""
    offenders = []
    for path in LAYER_SOURCES:
        where = path.relative_to(PACKAGE)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                if node.attr.startswith("_m_"):
                    offenders.append(f"{where}:{node.lineno} {node.attr}")
                if node.attr == "registry" and _names_obs(node.value):
                    offenders.append(f"{where}:{node.lineno} obs.registry")
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in ("counter", "gauge", "histogram"):
                offenders.append(f"{where}:{node.lineno} "
                                 f".{node.func.attr}()")
            if isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.startswith("repro.obs.registry"):
                offenders.append(f"{where}:{node.lineno} import")
            if isinstance(node, ast.ImportFrom) \
                    and node.module == "repro.obs" \
                    and any(alias.name == "registry"
                            for alias in node.names):
                offenders.append(f"{where}:{node.lineno} import")
    assert not offenders


def test_no_count_sits_behind_the_obs_check():
    """Under ``if obs is (not) None`` a layer opens, closes and records
    spans; it never adds to a number -- that would be a count an untraced
    run does not keep."""
    offenders = []
    for path in LAYER_SOURCES:
        where = path.relative_to(PACKAGE)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.If) and _names_obs(node.test):
                offenders += [f"{where}:{sub.lineno}"
                              for sub in ast.walk(node)
                              if isinstance(sub, ast.AugAssign)]
    assert not offenders


def documented_names() -> set:
    text = (ROOT / "docs" / "observability.md").read_text()
    section = text.split("## Metric names", 1)[1].split("\n## ", 1)[0]
    names = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            names.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
    return names


def test_documented_names_are_the_tables_names():
    table = {re.sub(r"^syscall\..*", "syscall.<name>", name)
             for name, _get in METRICS + TIMINGS}
    assert documented_names() == table
