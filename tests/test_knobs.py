"""Knob census: the environment variables the code names are the ones the
docs name and reject nonsense values, a machine has the config fields
listed here, and the simulator stays dependency-free.

Every ``REPRO_*`` variable is an option somebody has to know about, so the
set is pinned here: adding one means editing this list *and* documenting
it, and a doc that tells readers to set a variable nothing reads (as
DESIGN.md once did) fails.
"""

import ast
import dataclasses
import re
from pathlib import Path

import pytest

from repro.harness.parallel import default_jobs
from repro.harness.runner import scale_factor
from repro.machine import MachineConfig

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py"))
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md",
        ROOT / "docs" / "performance.md", ROOT / "docs" / "observability.md"]

KNOBS = {"REPRO_SCALE", "REPRO_JOBS"}

#: every independently settable value of one simulated testbed; a field
#: nobody sets differently is a constant, not a field
MACHINE_CONFIG_FIELDS = {"scheme", "policy", "fs_geometry", "costs",
                         "cache_bytes", "observe", "faults"}

#: the only package allowed to read the process environment: the CLI and
#: grid plumbing.  Everything else -- ``obs`` included, which a
#: ``Machine()`` constructs -- is configured by its caller
ENV_READERS = ("harness",)


def knob_names(paths) -> set:
    return {name for path in paths
            for name in re.findall(r"REPRO_[A-Z_]+", path.read_text())}


def test_knobs_named_in_src_are_the_documented_ones():
    assert knob_names(SOURCES) == KNOBS
    assert knob_names(DOCS) == KNOBS


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf", "-inf", "abc", ""])
def test_a_nonsense_scale_is_rejected(monkeypatch, value):
    """Not a positive finite number: the tables would be labelled with it
    (and built at the clamped minimum tree), or fail far from the cause."""
    monkeypatch.setenv("REPRO_SCALE", value)
    with pytest.raises(ValueError, match="REPRO_SCALE"):
        scale_factor()


@pytest.mark.parametrize("value", ["-3", "0", "abc", "2.5"])
def test_a_nonsense_job_count_is_rejected(monkeypatch, value):
    monkeypatch.setenv("REPRO_JOBS", value)
    with pytest.raises(ValueError, match="REPRO_JOBS"):
        default_jobs()


def test_a_sane_scale_is_read(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.5")
    assert scale_factor() == 0.5
    monkeypatch.delenv("REPRO_SCALE")
    assert scale_factor() == 0.15


def test_machine_config_fields_are_the_listed_ones():
    assert {f.name for f in dataclasses.fields(MachineConfig)} \
        == MACHINE_CONFIG_FIELDS


def test_simulated_layers_never_read_the_environment():
    """A layer whose behaviour depends on ``os.environ`` is configured
    behind the back of whoever built the ``MachineConfig``."""
    offenders = []
    for path in SOURCES:
        relative = path.relative_to(ROOT / "src" / "repro")
        if relative.parts[0] in ENV_READERS:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) \
                    and node.attr in ("environ", "getenv"):
                offenders.append(f"{relative}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os" \
                    and any(alias.name in ("environ", "getenv")
                            for alias in node.names):
                offenders.append(f"{relative}:{node.lineno}")
    assert not offenders


def test_src_never_imports_numpy():
    offenders = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(module.split(".")[0] == "numpy" for module in modules):
                offenders.append(str(path.relative_to(ROOT)))
    assert not offenders
