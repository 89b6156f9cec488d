"""Benchmark runners: build a machine, run a workload, collect metrics.

Scale: the paper's full parameters (4 users x 535 files x 14.3 MB, 10,000
microbenchmark files, 100 Andrew iterations) take a while in a pure-Python
simulator, so every runner accepts a scale factor.  ``scale_factor()`` reads
``REPRO_SCALE`` from the environment: the default 0.15 finishes the whole
suite in minutes; ``REPRO_SCALE=1`` reproduces paper-scale parameters.
Cache capacity scales along with the workload so that the memory-pressure
dynamics (the cache-full throttling of the copy benchmark) are preserved.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import replace
from typing import Callable, Optional

from repro.costs import CostModel
from repro.driver import FlagSemantics
from repro.harness.metrics import RunResult, collect
from repro.machine import Machine, MachineConfig
from repro.ordering import SchedulerFlagScheme
from repro.ordering.registry import by_display_name, standard_display_names
from repro.workloads.copybench import (
    copy_tree_user,
    populate_sources,
    remove_tree_user,
)
from repro.workloads.trees import TreeSpec, build_tree

#: full-scale memory budget for cached blocks + in-flight write copies:
#: the paper's 44 MB system memory minus kernel text/structures.  The 4-user
#: remove's ~37 MB of ordered writes "just fit", which is the regime the
#: figures were measured in.
FULL_CACHE_BYTES = 40 * 1024 * 1024


def scale_factor(default: float = 0.15) -> float:
    """Benchmark scale (1.0 = paper-scale), from ``REPRO_SCALE``.

    Anything but a positive finite number is a ``ValueError``.
    """
    value = os.environ.get("REPRO_SCALE", default)
    try:
        scale = float(value)
    except ValueError:
        scale = math.nan
    if not 0.0 < scale < math.inf:
        raise ValueError(
            f"REPRO_SCALE must be a positive finite number, got {value!r}")
    return scale


def _config(scheme, cache_bytes: Optional[int] = None) -> MachineConfig:
    return MachineConfig(scheme=scheme, costs=CostModel(),
                         cache_bytes=cache_bytes or FULL_CACHE_BYTES)


def standard_scheme_config(name: str, alloc_init: bool = False,
                           cache_bytes: Optional[int] = None) -> MachineConfig:
    """The standard configurations: section 5's five plus journaling.

    Everything comes from :data:`repro.ordering.registry.REGISTRY` -- the
    scheme instance in its table configuration (the scheduler schemes get
    the -CB block-copy enhancement there), which also builds the driver
    policy (Part-NR for the flag, chains for chains).
    """
    scheme = by_display_name(name).build_standard(alloc_init=alloc_init)
    return _config(scheme, cache_bytes=cache_bytes)


#: the comparison order (section 5's five, then journaling, No Order last)
STANDARD_SCHEMES = standard_display_names()


def flag_variant(semantics: FlagSemantics, read_bypass: bool,
                 block_copy: bool,
                 cache_bytes: Optional[int] = None) -> MachineConfig:
    """A Scheduler Flag machine with explicit flag semantics (figures 1-4).

    Allocation initialization is on: the figures' elapsed times
    (500-800 s) exceed table 1's no-init flag row (381 s), so the flag
    studies were clearly run with initialization enforced -- which is also
    what makes flagged writes frequent enough for the semantics to matter.
    """
    return _config(SchedulerFlagScheme(block_copy=block_copy,
                                       alloc_init=True,
                                       semantics=semantics,
                                       read_bypass=read_bypass),
                   cache_bytes=cache_bytes)


def build_machine(config: MachineConfig) -> Machine:
    machine = Machine(config)
    machine.format()
    return machine


# ----------------------------------------------------------------------
# the copy / remove benchmarks
# ----------------------------------------------------------------------
def with_seed(tree: TreeSpec, seed: Optional[int]) -> TreeSpec:
    """The same tree shape regenerated from an explicit RNG seed.

    Crash exploration and failure reproduction need byte-for-byte identical
    runs: the seed fully determines the tree layout, file sizes and
    contents, and (because the simulator itself is deterministic) the whole
    event trace.  ``None`` keeps the spec's own seed.
    """
    return tree if seed is None else replace(tree, seed=seed)


def run_copy(config: MachineConfig, users: int, tree: TreeSpec,
             label: str = "", seed: Optional[int] = None,
             on_machine: Optional[Callable[[Machine], None]] = None
             ) -> RunResult:
    """N-user copy: returns the table-1-style measurements.

    *on_machine* (if given) receives the machine right after it is built --
    the trace CLI uses it to keep a handle for exporting the machine's
    trace once the run finishes.
    """
    wall_start = time.perf_counter()
    tree = with_seed(tree, seed)
    machine = build_machine(config)
    if on_machine is not None:
        on_machine(machine)
    populate_sources(machine, users, tree)
    mark = machine.driver.last_issued_id
    processes = [machine.spawn(copy_tree_user(machine, user),
                               name=f"user{user}")
                 for user in range(users)]
    machine.run(*processes, max_events=300_000_000)
    machine.sync_and_settle()
    result = collect(machine, processes, mark, label=label)
    result.wall_seconds = time.perf_counter() - wall_start
    return result


def run_remove(config: MachineConfig, users: int, tree: TreeSpec,
               label: str = "", cold_cache: bool = False,
               seed: Optional[int] = None,
               on_machine: Optional[Callable[[Machine], None]] = None
               ) -> RunResult:
    """N-user remove: deletes freshly-copied trees.

    ``cold_cache=False`` models the paper's tables (the tree was "newly
    copied", its metadata still cached); ``True`` models the figure-2/4
    studies where the users' earlier copies had pushed the tree's metadata
    out of memory, so removal issues reads that interact with the ordered
    write queue.
    """
    wall_start = time.perf_counter()
    tree = with_seed(tree, seed)
    machine = build_machine(config)
    if on_machine is not None:
        on_machine(machine)

    def builder():
        for user in range(users):
            yield from machine.fs.mkdir(f"/u{user}")
            yield from build_tree(machine.fs, f"/u{user}/tree", tree)

    machine.populate(builder(), cold_cache=cold_cache)
    mark = machine.driver.last_issued_id
    processes = [machine.spawn(remove_tree_user(machine, user),
                               name=f"user{user}")
                 for user in range(users)]
    machine.run(*processes, max_events=300_000_000)
    machine.sync_and_settle()
    result = collect(machine, processes, mark, label=label)
    result.wall_seconds = time.perf_counter() - wall_start
    return result
