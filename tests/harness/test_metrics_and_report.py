"""Tests for metric collection and the table formatters."""

import pytest

from repro.driver import DeviceDriver
from repro.harness.metrics import RunResult, collect
from repro.harness.report import format_series, format_table
from repro.harness.runner import run_copy, standard_scheme_config
from repro.obs import snapshot
from repro.workloads.trees import TreeSpec
from tests.conftest import make_machine, run_user

TINY_TREE = TreeSpec(files=16, total_bytes=128 * 1024, dirs=3)


def capture_completions(monkeypatch, done):
    """Append ``(id, is_write, issue, dispatch, complete)`` of every
    request any driver issues to *done*, from the request's own
    ``on_complete`` hook: in completion order."""
    issue = DeviceDriver.issue

    def hooked(*args, **kwargs):
        request = issue(*args, **kwargs)
        request.on_complete.append(lambda r: done.append(
            (r.id, r.is_write, r.issue_time, r.dispatch_time,
             r.complete_time)))
        return request

    monkeypatch.setattr(DeviceDriver, "issue", hooked)


def reference_fold(done, after):
    """What ``collect`` reports of the requests issued after *after*,
    folded over the requests themselves."""
    window = [request for request in done if request[0] > after]
    count = len(window)
    queue = sum(dispatch - issue for _i, _w, issue, dispatch, _c in window)
    access = sum(end - dispatch for _i, _w, _s, dispatch, end in window)
    reads = sum(1 for request in window if not request[1])
    return {"disk_requests": count,
            "io_response_avg": sum(end - issue for _i, _w, issue, _d, end
                                   in window) / count,
            "access_avg": access / count, "queue_avg": queue / count,
            "driver_response_avg": queue / count + access / count,
            "reads": reads, "writes": count - reads}


class TestTraceFolds:
    """``collect`` and the registry read the trace's columns; every mean
    they report must be the same float the requests themselves give."""

    @pytest.mark.parametrize("scheme", ["Scheduler Chains", "Journaling"])
    def test_collect_and_registry_equal_a_fold_over_the_requests(
            self, scheme, monkeypatch):
        done = []
        machines = []
        capture_completions(monkeypatch, done)
        result = run_copy(standard_scheme_config(scheme), users=2,
                          tree=TINY_TREE, seed=5, on_machine=machines.append)
        machine, = machines
        last = machine.driver.last_issued_id
        assert len(done) == len(machine.driver.trace) == last
        mark = last - result.disk_requests  # the copy's own window
        for after in (mark, 0, last // 2):
            got = collect(machine, [], after)
            want = reference_fold(done, after)
            assert {name: getattr(got, name) for name in want} == want
        assert {name: getattr(result, name) for name in want} \
            == reference_fold(done, mark)
        metrics = snapshot(machine)
        queue = 0.0
        for _i, _w, issue, dispatch, _c in done:
            queue += dispatch - issue
        writes = sum(1 for request in done if request[1])
        assert (metrics["driver.reads"], metrics["driver.writes"]) == (
            len(done) - writes, writes)
        assert (metrics["driver.queue_wait.count"],
                metrics["driver.queue_wait.sum"]) == (len(done), queue)


class TestCollect:
    def test_window_excludes_setup_requests(self):
        machine = make_machine("conventional")

        def setup():
            yield from machine.fs.write_file("/setup", b"s" * 4096)
            yield from machine.fs.sync()

        run_user(machine, setup())
        mark = machine.driver.last_issued_id

        def benchmark():
            yield from machine.fs.write_file("/bench", b"b" * 4096)
            yield from machine.fs.sync()

        process = machine.engine.process(benchmark(), name="bench")
        machine.engine.run_until(process, max_events=5_000_000)
        result = collect(machine, [process], mark)
        assert 0 < result.disk_requests < machine.driver.requests_issued
        assert result.elapsed > 0
        assert result.reads + result.writes == result.disk_requests

    def test_cpu_time_sums_users(self):
        machine = make_machine("noorder", free_cpu=False)

        def worker():
            yield from machine.fs.write_file("/c", b"c" * 10000)

        procs = [machine.engine.process(worker(), name="a")]
        for proc in procs:
            machine.engine.run_until(proc, max_events=5_000_000)
        result = collect(machine, procs, 0)
        assert result.cpu_time == pytest.approx(procs[0].cpu_time)

    def test_empty_window(self):
        machine = make_machine("noorder")
        result = collect(machine, [], machine.driver.last_issued_id)
        assert result.disk_requests == 0
        assert result.elapsed == 0.0

    def test_users_completing_without_io_yield_zero_request_window(self):
        """A window with zero completed requests must not divide by zero:
        users that never touch the disk still report their elapsed time."""
        machine = make_machine("noorder", free_cpu=False)

        def idle():
            yield machine.engine.timeout(0.5)

        process = machine.engine.process(idle(), name="idle")
        machine.engine.run_until(process, max_events=1_000_000)
        result = collect(machine, [process], machine.driver.last_issued_id)
        assert result.disk_requests == 0
        assert result.reads == result.writes == 0
        assert result.io_response_avg == 0.0
        assert result.queue_avg == 0.0
        assert result.driver_response_avg == 0.0
        assert result.elapsed == pytest.approx(0.5)

    def test_reads_only_window(self):
        """A cold-cache read workload produces a pure-read window: the
        writes counter stays zero and reads account for every request."""
        machine = make_machine("noorder")
        run_user(machine, machine.fs.write_file("/r", b"r" * 65536),
                 name="setup")
        machine.sync_and_settle()
        machine.drop_caches()
        mark = machine.driver.last_issued_id

        def reader():
            data = yield from machine.fs.read_file("/r")
            assert data == b"r" * 65536

        process = machine.engine.process(reader(), name="reader")
        machine.engine.run_until(process, max_events=5_000_000)
        result = collect(machine, [process], mark)
        assert result.disk_requests > 0
        assert result.writes == 0
        assert result.reads == result.disk_requests
        assert result.io_response_avg > 0

    def test_after_request_id_past_trace_end(self):
        """A mark beyond the last issued id selects the empty window rather
        than raising or going negative."""
        machine = make_machine("conventional")
        run_user(machine, machine.fs.write_file("/w", b"w" * 4096))
        machine.sync_and_settle()
        mark = machine.driver.last_issued_id + 1_000_000
        result = collect(machine, [], mark)
        assert result.disk_requests == 0
        assert result.access_avg == 0.0
        assert result.sim_events == machine.engine.events_processed

    def test_driver_response_is_queue_plus_service(self):
        """driver_response_avg must be computed from the dispatch stamps
        (queue wait + drive service), not copied from io_response_avg."""
        machine = make_machine("conventional")

        def benchmark():
            yield from machine.fs.write_file("/bench", b"b" * 40960)
            yield from machine.fs.sync()

        process = machine.engine.process(benchmark(), name="bench")
        machine.engine.run_until(process, max_events=5_000_000)
        result = collect(machine, [process], 0)
        window = [r for r in machine.driver.trace if r.id > 0]
        queue = sum(r.dispatch_time - r.issue_time for r in window)
        service = sum(r.complete_time - r.dispatch_time for r in window)
        assert result.queue_avg == pytest.approx(queue / len(window))
        assert result.driver_response_avg == pytest.approx(
            (queue + service) / len(window))
        assert result.sim_events > 0


class TestRunResult:
    def test_as_row_mixes_fields_and_extras(self):
        result = RunResult(scheme="X", elapsed=1.5)
        result.extra["throughput"] = 42
        assert result.as_row(["scheme", "elapsed", "throughput"]) \
            == ["X", 1.5, 42]

    def test_as_row_extra_keys_shadowed_by_methods_resolve_to_extra(self):
        """Only declared dataclass *fields* resolve as attributes.  A
        ``hasattr`` check would also match methods -- ``as_row`` itself --
        and return a bound method instead of the extra's value."""
        result = RunResult(scheme="X")
        result.extra["as_row"] = "column named like a method"
        result.extra["collect"] = 7
        assert result.as_row(["as_row", "collect"]) \
            == ["column named like a method", 7]

    def test_as_row_unknown_column_is_blank(self):
        result = RunResult(scheme="X")
        assert result.as_row(["no-such-column"]) == [""]


class TestFormatters:
    def test_format_table_aligns(self):
        text = format_table("T", ["a", "long-header"],
                            [[1, 2.5], ["xyz", 10000.0]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len({len(line) for line in lines[2:]}) == 1  # aligned

    def test_format_series_column_per_scheme(self):
        text = format_series("S", "x", [1, 2],
                             {"A": [10.0, 20.0], "B": [30.0, 40.0]})
        assert "A" in text and "B" in text
        assert "30.0" in text

    def test_float_formatting_rules(self):
        text = format_table("F", ["v"], [[0.123456], [12.34], [12345.6]])
        assert "0.123" in text
        assert "12.3" in text
        assert "12346" in text
