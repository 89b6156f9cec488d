"""Unit tests for Process semantics: joining, return values, crashes."""

import pytest

from repro.sim import Engine, ProcessCrashed, SimulationError


@pytest.fixture
def eng():
    return Engine()


def test_yield_from_composes_subroutines(eng):
    def helper():
        yield eng.timeout(1.0)
        return 10

    def main():
        a = yield from helper()
        b = yield from helper()
        return a + b

    proc = eng.process(main())
    assert eng.run_until(proc) == 20
    assert eng.now == 2.0


def test_join_another_process(eng):
    def child():
        yield eng.timeout(3.0)
        return "child-result"

    def parent():
        result = yield eng.process(child())
        return result

    assert eng.run_until(eng.process(parent())) == "child-result"


def test_crash_propagates_to_joiner(eng):
    def bad():
        yield eng.timeout(1.0)
        raise KeyError("oops")

    def parent():
        try:
            yield eng.process(bad())
        except ProcessCrashed as crash:
            return type(crash.original).__name__
        return "no crash"

    assert eng.run_until(eng.process(parent())) == "KeyError"


def test_crash_surfaces_through_run_until(eng):
    def bad():
        yield eng.timeout(1.0)
        raise RuntimeError("kaboom")

    with pytest.raises(ProcessCrashed):
        eng.run_until(eng.process(bad()))


def test_yielding_non_event_crashes_process(eng):
    def bad():
        yield 42

    with pytest.raises(ProcessCrashed, match="must.*yield Event"):
        eng.run_until(eng.process(bad()))


def test_process_lifetime_bookkeeping(eng):
    def worker():
        yield eng.timeout(5.0)

    proc = eng.process(worker())
    assert proc.alive
    assert proc.started_at == 0.0
    eng.run_until(proc)
    assert not proc.alive
    assert proc.finished_at == 5.0


def test_immediate_return_process(eng):
    def instant():
        return "now"
        yield  # pragma: no cover - makes this a generator

    assert eng.run_until(eng.process(instant())) == "now"


def test_two_processes_interleave(eng):
    log = []

    def ticker(tag, period):
        for _ in range(3):
            yield eng.timeout(period)
            log.append((eng.now, tag))

    procs = [eng.process(ticker("a", 1.0)), eng.process(ticker("b", 1.5))]
    for proc in procs:
        eng.run_until(proc)
    # at t=3.0 both fire; b's timeout was enqueued first (at t=1.5) so FIFO
    # ordering resumes b first
    assert log == [(1.0, "a"), (1.5, "b"), (2.0, "a"), (3.0, "b"),
                   (3.0, "a"), (4.5, "b")]


def test_run_until_deadlocked_children(eng):
    def waits_forever():
        yield eng.event()

    proc = eng.process(waits_forever())
    with pytest.raises(SimulationError):
        eng.run_until(proc, max_events=1000)


def test_repr_reports_done_or_alive(eng):
    def sleeper():
        yield eng.timeout(1.0)

    proc = eng.process(sleeper(), name="sleeper")
    assert repr(proc) == "<Process 'sleeper' alive>"
    eng.step()  # started, now asleep on its timeout
    assert repr(proc) == "<Process 'sleeper' alive>"
    eng.run_until(proc)
    assert repr(proc) == "<Process 'sleeper' done>"
