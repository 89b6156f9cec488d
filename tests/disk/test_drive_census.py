"""Drive census: every media operation takes the drive's one service path.

A fault is one outcome of a media operation, so the drive keeps no second
copy of the mechanics for it; this test walks the source so none can grow
back beside :meth:`repro.disk.drive.Disk.service`.
"""

import ast
from pathlib import Path

DRIVE = (Path(__file__).resolve().parents[2] / "src" / "repro" / "disk"
         / "drive.py")


def _functions(path: Path):
    """``(qualified name, node)`` of every module function and method."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item
        elif isinstance(node, ast.FunctionDef):
            yield node.name, node


def _callers(attr: str) -> set:
    """The functions of ``repro/disk/drive.py`` that call ``<x>.attr(...)``."""
    return {name for name, func in _functions(DRIVE)
            for node in ast.walk(func)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == attr}


def test_only_service_spends_simulated_time():
    """In ``repro/disk/drive.py`` only ``Disk.service`` calls
    ``engine.hold``, and nothing builds an ``engine.timeout``."""
    assert _callers("hold") == {"Disk.service"}
    assert _callers("timeout") == set()
