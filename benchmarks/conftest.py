"""Shared benchmark infrastructure.

Every benchmark regenerates one of the paper's tables or figures: it runs
the workload on the simulator under each scheme configuration, prints the
rows in the paper's format, writes them to ``benchmarks/results/``, and
asserts the paper's qualitative findings (who wins, by roughly what factor).

Scale: ``REPRO_SCALE`` (default 0.15) scales file counts/bytes; 1.0 is
paper-scale.  Simulated seconds are reported, not wall seconds.

Parallelism: each benchmark's independent (scheme, config) cells run
through :func:`repro.harness.parallel.run_grid`, which fans them across a
process pool (``REPRO_JOBS`` workers, default: all cores; ``REPRO_JOBS=1``
forces serial).  Results are deterministic either way -- the regenerated
tables are byte-identical.  Host time is not measured here: that is
``bench/run.py``'s job (``bench/README.md``).
"""

import pathlib

import pytest

from repro.harness.parallel import run_grid  # noqa: F401  (re-exported)
from repro.harness.runner import FULL_CACHE_BYTES, scale_factor

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

SCALE = scale_factor()


def scaled_cache() -> int:
    """Cache size shrunk with the workload to preserve memory pressure."""
    return max(1 * 1024 * 1024, int(FULL_CACHE_BYTES * SCALE))


def emit(name: str, text: str) -> None:
    """Print a regenerated table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)


@pytest.fixture
def once(benchmark):
    """Run the experiment exactly once under pytest-benchmark timing."""

    def runner(fn):
        return benchmark.pedantic(fn, rounds=1, iterations=1)

    return runner
