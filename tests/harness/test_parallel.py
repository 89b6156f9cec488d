"""The parallel grid runner: serial/parallel identity and failure naming."""

from dataclasses import dataclass

import pytest

from repro.disk import Disk
from repro.driver import DeviceDriver, FlagPolicy, FlagSemantics
from repro.harness.parallel import (
    Cell,
    GridCellError,
    default_jobs,
    run_grid,
)
from repro.sim import Engine


@dataclass
class MiniResult:
    key: str
    trace: list
    sim_events: int


def simulate(seed: int) -> MiniResult:
    """A small deterministic driver run (heavier for larger seeds, so
    parallel completion order differs from input order)."""
    engine = Engine()
    driver = DeviceDriver(engine, Disk(engine),
                          FlagPolicy(FlagSemantics.PART))
    issued = [driver.write((37 * (seed + 1) * i) % 5000, b"\x01" * 1024,
                           flag=i % 3 == 0)
              for i in range(10 + 10 * seed)]
    for request in issued:
        engine.run_until(request.done, max_events=1_000_000)
    return MiniResult(key=f"cell{seed}",
                      trace=[(r.id, r.lbn, r.complete_time)
                             for r in driver.trace],
                      sim_events=engine.events_processed)


def make_cells():
    return [Cell(f"cell{seed}", lambda seed=seed: simulate(seed))
            for seed in range(4)]


class TestRunGrid:
    def test_serial_and_parallel_results_identical(self):
        serial = run_grid("t-serial", make_cells(), jobs=1)
        parallel = run_grid("t-parallel", make_cells(), jobs=3)
        assert serial == parallel

    def test_results_keyed_in_input_order(self):
        results = run_grid("t-order", make_cells(), jobs=3)
        assert list(results) == [f"cell{seed}" for seed in range(4)]

    def test_accepts_key_fn_pairs(self):
        results = run_grid("t-pairs", [("a", lambda: 1), ("b", lambda: 2)],
                           jobs=1)
        assert results == {"a": 1, "b": 2}

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_duplicate_keys_are_refused_before_any_cell_runs(self, jobs):
        """``{key: result}`` can hold one result per key: a repeated key
        used to lose a cell's result without a word."""
        ran = []
        cells = [(1, lambda: ran.append("f")), (2, lambda: ran.append("g")),
                 (1, lambda: ran.append("h"))]
        with pytest.raises(ValueError, match="duplicate cell key 1"):
            run_grid("t-dup", cells, jobs=jobs)
        assert ran == []


def _boom():
    raise ValueError("synthetic cell failure")


class TestGridCellError:
    """A worker exception must surface naming the failing cell, not as a
    bare pickled traceback from somewhere inside the pool."""

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_failure_names_grid_and_cell(self, jobs):
        cells = [("ok0", lambda: 1),
                 (("Soft Updates", "4 users"), _boom),
                 ("ok1", lambda: 2)]
        with pytest.raises(GridCellError) as excinfo:
            run_grid("t-fail", cells, jobs=jobs)
        err = excinfo.value
        assert err.grid == "t-fail"
        assert err.key == ("Soft Updates", "4 users")
        assert "ValueError: synthetic cell failure" in err.error
        assert "synthetic cell failure" in err.cell_traceback
        assert "Soft Updates" in str(err)

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_first_failure_in_input_order_wins(self, jobs):
        cells = [("a", lambda: 1), ("b", _boom), ("c", _boom)]
        with pytest.raises(GridCellError) as excinfo:
            run_grid("t-first", cells, jobs=jobs)
        assert excinfo.value.key == "b"


class TestDefaultJobs:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3

    def test_env_floor_is_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert default_jobs() == 1

    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() >= 1
