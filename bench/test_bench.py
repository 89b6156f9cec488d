"""The benchmark's own checks: ``python -m pytest bench -q`` (about 6 min).

Not part of tier-1 (``testpaths`` is ``tests``): every test below the first
three runs real workloads in subprocesses.
"""

import json
import pathlib
import subprocess
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import catalogue  # noqa: E402
import layers  # noqa: E402


def test_every_module_belongs_to_one_named_layer():
    modules = sorted(path.relative_to(layers.REPRO_DIR).as_posix()
                     for path in layers.REPRO_DIR.rglob("*.py"))
    assert modules, "no simulator sources found"
    for module in modules:  # raises for a package with no layer
        assert layers.layer_of_module(module) in layers.LAYERS


def test_benchmark_json_is_the_catalogue():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared == catalogue.benchmark_json()
    names = [m.name for m in catalogue.END_TO_END + catalogue.PER_LAYER]
    assert len(names) == len(set(names))
    assert len(catalogue.PER_LAYER) <= 128


def test_every_catalogued_workload_is_runnable():
    import workloads
    assert list(workloads.WORKLOADS) == list(catalogue.WORKLOADS)


# ----------------------------------------------------------------------
# real runs, one round each
# ----------------------------------------------------------------------
def quick_run(tmp_path_factory, workload, seed, trace):
    out = tmp_path_factory.mktemp(f"{workload}-{seed}-{trace}")
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--rounds", "1", "--trace", str(trace),
         "--out", str(out)],
        stdout=subprocess.PIPE, text=True, timeout=600)
    assert done.returncode == 0
    result = json.loads((out / "result.json").read_text())
    return (result["workloads"][workload],
            json.loads(done.stdout.splitlines()[-1]), out)


@pytest.fixture(scope="module", params=list(catalogue.WORKLOADS))
def traced(request, tmp_path_factory):
    return quick_run(tmp_path_factory, request.param, seed=0, trace=1)


def test_quick_run_is_clean(traced):
    result, line, _out = traced
    assert result["failed_share"] == 0, result["failures"]
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert set(line["metrics"]) == {m.name for m in catalogue.PER_LAYER}
    for value in result["end_to_end"].values():
        assert value > 0


def test_traced_shares_sum_to_one(traced):
    result, _line, _out = traced
    total = sum(result["per_layer"][f"{layer}.share"]
                for layer in layers.LAYERS)
    assert abs(total - 1.0) <= 1e-6
    for cell in result["cells"]:
        assert abs(sum(cell["layer_share"].values()) - 1.0) <= 1e-6


def test_layers_separate_the_workloads(traced):
    result, _line, _out = traced
    share = {layer: result["per_layer"][f"{layer}.share"]
             for layer in layers.LAYERS if not layer.startswith("py.")}
    if result["workload"] == "copy4":
        assert max(share, key=share.get) == "sim"
    if result["workload"] == "crash_sweep":
        assert share["sim"] < 0.05
    if result["workload"] == "dirops":
        for cell in result["cells"]:
            if cell["id"].endswith(("/create", "/remove")):
                top = max(cell["layer_share"], key=cell["layer_share"].get)
                assert top == "fs.directory", cell["id"]


def test_spans_nest_under_their_cell(traced):
    result, _line, out = traced
    spans = json.loads(
        (out / f"trace_{result['workload']}.json").read_text())["spans"]
    assert spans
    for span in spans:
        assert span["end"] >= span["start"] and span["cell"]
        if span["name"] != "cell":
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"]
            assert span["end"] <= parent["end"]
            assert parent["cell"] == span["cell"]


def test_same_seed_repeats_exactly(traced, tmp_path_factory):
    result, _line, _out = traced
    again, _line, _out = quick_run(tmp_path_factory, result["workload"],
                                   seed=0, trace=1)
    assert again["end_to_end"]["sim_elapsed_s"] == \
        result["end_to_end"]["sim_elapsed_s"]
    for metric in catalogue.PER_LAYER:
        if metric.repeats:
            assert again["per_layer"][metric.name] == \
                result["per_layer"][metric.name], metric.name


def test_another_seed_is_another_input(traced, tmp_path_factory):
    result, _line, _out = traced
    other, line, _out = quick_run(tmp_path_factory, result["workload"],
                                  seed=1, trace=0)
    assert other["failed_share"] == 0, other["failures"]
    assert set(line["metrics"]) == {m.name for m in catalogue.END_TO_END}
    assert other["end_to_end"]["sim_elapsed_s"] != \
        result["end_to_end"]["sim_elapsed_s"]
    assert other["per_layer"]["sim.events"] != \
        result["per_layer"]["sim.events"]


def test_compare_agrees_with_itself_and_flags_a_regression(traced, tmp_path):
    result, _line, out = traced
    same = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--compare",
         str(out / "result.json"), str(out / "result.json")],
        stdout=subprocess.PIPE, text=True)
    assert same.returncode == 0, same.stdout
    slower = json.loads((out / "result.json").read_text())
    slower["workloads"][result["workload"]]["end_to_end"]["cpu_ref_s"] *= 1.5
    (tmp_path / "slower.json").write_text(json.dumps(slower))
    worse = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--compare",
         str(out / "result.json"), str(tmp_path / "slower.json")],
        stdout=subprocess.PIPE, text=True)
    assert worse.returncode == 1 and " worse" in worse.stdout
