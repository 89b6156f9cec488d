"""Source path -> layer, and the fold of a ``cProfile`` run into layers.

The layers are this repo's packages, with the three packages whose modules
do very different jobs (``fs``, ``disk``, ``integrity``) split by module.
Everything outside ``src/repro`` is ``py.builtins`` (C functions and
methods), ``bench`` (the benchmark's own drivers) or ``py.stdlib``.

A layer's ``self_s`` is the sum of ``tottime`` -- time inside its own frames,
callees excluded -- so the layer shares of one traced round sum to 1.
"""

from __future__ import annotations

import pathlib

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPRO_DIR = BENCH_DIR.parent / "src" / "repro"

#: modules that do not belong to their package's default layer
_MODULE_LAYERS = {
    "fs/directory.py": "fs.directory",
    "fs/alloc.py": "fs.alloc",
    # the on-disk formats: encode/decode only, shared by fs and fsck
    "fs/layout.py": "fs.layout",
    "fs/superblock.py": "fs.layout",
    "fs/mkfs.py": "fs.layout",
    "fs/journal.py": "fs.layout",
    "disk/storage.py": "disk.storage",
    "integrity/fsck.py": "integrity.fsck",
    "integrity/medialog.py": "integrity.medialog",
    "integrity/invariants.py": "integrity.invariants",
    "integrity/monitor.py": "integrity.monitor",
    # top-level glue: the assembled machine, its cost table, the package root
    "machine.py": "harness",
    "costs.py": "harness",
    "__init__.py": "harness",
}

#: package -> the layer of every module not listed above.  A new package
#: has no entry, so ``layer_of`` raises and ``bench/test_bench.py`` fails
#: until it is given a name here: nothing folds into an "other" bucket.
_PACKAGE_LAYERS = {
    "sim": "sim",
    "fs": "fs.vfs",
    "cache": "cache",
    "ordering": "ordering",
    "driver": "driver",
    "disk": "disk.drive",
    "integrity": "integrity.explorer",
    "faults": "faults",
    "workloads": "workloads",
    "obs": "obs",
    "harness": "harness",
}

LAYERS = tuple(dict.fromkeys(
    [*_PACKAGE_LAYERS.values(), *_MODULE_LAYERS.values(),
     "bench", "py.builtins", "py.stdlib"]))


def layer_of_module(relative: str) -> str:
    """The layer of a module path relative to ``src/repro``."""
    layer = _MODULE_LAYERS.get(relative)
    if layer is None:
        package = relative.split("/", 1)[0]
        if package not in _PACKAGE_LAYERS:
            raise KeyError(f"src/repro/{relative} belongs to no layer; "
                           "name one in bench/layers.py")
        layer = _PACKAGE_LAYERS[package]
    return layer


def layer_of(code) -> str:
    """The layer of one ``cProfile`` entry's ``code`` field."""
    if isinstance(code, str):  # "<built-in method ...>", "<method ...>"
        return "py.builtins"
    path = pathlib.Path(code.co_filename)
    if path.is_relative_to(REPRO_DIR):
        return layer_of_module(path.relative_to(REPRO_DIR).as_posix())
    if path.is_relative_to(BENCH_DIR):
        return "bench"
    return "py.stdlib"


def fold(entries) -> dict:
    """Fold ``cProfile.Profile.getstats()`` by layer.

    Returns ``{"layers": {layer: {"self_s", "share", "calls"}},
    "total_s", "py_calls", "sim.resumes", "sim.compute_calls"}``; every layer
    is present, idle ones as zeros.
    """
    layers = {name: {"self_s": 0.0, "share": 0.0, "calls": 0}
              for name in LAYERS}
    cache: dict = {}
    for entry in entries:
        code = entry.code
        key = code if isinstance(code, str) else code.co_filename
        layer = cache.get(key)
        if layer is None:
            layer = cache[key] = layer_of(code)
        bucket = layers[layer]
        bucket["self_s"] += entry.inlinetime
        bucket["calls"] += entry.callcount
    total = sum(bucket["self_s"] for bucket in layers.values())
    for bucket in layers.values():
        bucket["share"] = bucket["self_s"] / total if total else 0.0
    return {"layers": layers, "total_s": total,
            "py_calls": sum(bucket["calls"] for bucket in layers.values()),
            "sim.resumes": _calls_of(entries, "sim/process.py",
                                     "Process._resume"),
            "sim.compute_calls": _calls_of(entries, "sim/cpu.py",
                                           "CPU.compute")}


def _calls_of(entries, module: str, qualname: str):
    """``ncalls`` of one function of ``src/repro``; None if it is gone."""
    target = str(REPRO_DIR / module)
    for entry in entries:
        code = entry.code
        if (not isinstance(code, str) and code.co_qualname == qualname
                and code.co_filename == target):
            return entry.callcount
    return None
