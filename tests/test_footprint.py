"""What a run keeps resident: the modules importing the simulator loads,
and the size of the sleep/wake primitives every buffer and in-core inode
owns (docs/performance.md, "What a run keeps resident")."""

import os
import subprocess
import sys
import tracemalloc

import repro
from repro.sim import Engine, Lock, WaitQueue

#: what a benchmark or sweep process imports
RUN_MODULES = ("repro", "repro.harness", "repro.harness.runner",
               "repro.harness.recording", "repro.integrity.explorer",
               "repro.workloads")

#: modules only rare callers need: ``SectorStore.digest`` (hashlib and
#: its OpenSSL binding) and ``run_grid``'s fork pool (multiprocessing)
DEFERRED = ("hashlib", "_hashlib", "multiprocessing")


def test_importing_the_simulator_loads_neither_openssl_nor_multiprocessing():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    probe = (f"import sys\n"
             f"for name in {RUN_MODULES!r}:\n"
             f"    __import__(name)\n"
             f"print(' '.join(m for m in {DEFERRED!r} if m in sys.modules))")
    completed = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert completed.returncode == 0, completed.stderr[-500:]
    assert completed.stdout.split() == []


def test_idle_wait_queues_and_locks_stay_small():
    """1 000 of each, never slept on: a list of sleepers each (an empty
    ``collections.deque`` was 760 bytes, 1.6 MB for these 2 000)."""
    engine = Engine()
    tracemalloc.start()
    try:
        queues = [WaitQueue(engine) for _ in range(1000)]
        locks = [Lock(engine) for _ in range(1000)]
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(queues) == len(locks) == 1000
    assert held < 300_000, held
