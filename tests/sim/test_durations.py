"""A simulated duration is finite and non-negative, or it is refused.

An infinite CPU charge would spin inside one ``compute`` call (its slice
loop never ends, and no ``max_events`` budget can stop a loop that never
returns to the engine); a NaN charge would be silently free; a NaN timeout
would sit on the heap out of order and set the clock to NaN when popped.
Each is a ``ValueError`` at the call, with nothing scheduled.  So is a CPU
quantum that is not finite and positive: a zero or negative one never
ends a charge's slicing, a NaN one silently skips it.
"""

import pytest

from repro.sim import CPU, Engine, ProcessCrashed

from tests.conftest import call_later

BAD = [float("inf"), float("nan"), -1.0, float("-inf")]


@pytest.mark.parametrize("seconds", BAD)
def test_compute_refuses(seconds):
    eng = Engine()
    cpu = CPU(eng)
    with pytest.raises(ValueError, match="finite and non-negative"):
        cpu.compute(seconds)
    assert cpu.busy_time == 0.0 and not eng.pending_events


@pytest.mark.parametrize("seconds", BAD)
def test_compute_refuses_on_a_busy_cpu(seconds):
    eng = Engine()
    cpu = CPU(eng)
    first = cpu.compute(1.0)             # outside a run loop: it queues
    assert len(first) == 1
    with pytest.raises(ValueError):
        cpu.compute(seconds)
    assert eng.pending_events == 1 and not cpu._waiters


@pytest.mark.parametrize("quantum", [0.0, -1.0, float("nan"), float("inf")])
def test_cpu_refuses_quantum(quantum):
    with pytest.raises(ValueError, match="finite and positive"):
        CPU(Engine(), quantum=quantum)


@pytest.mark.parametrize("delay", BAD)
@pytest.mark.parametrize("schedule", ["timeout", "hold", "call_later"])
def test_engine_delays_refuse(schedule, delay):
    eng = Engine()
    with pytest.raises(ValueError, match="finite and non-negative"):
        if schedule == "call_later":
            call_later(eng, delay, lambda: None)
        else:
            getattr(eng, schedule)(delay)
    assert eng.now == 0.0 and not eng.pending_events


def test_a_refused_delay_leaves_the_order_of_the_rest_alone():
    """The NaN timeout that once fired between 2.0 and 3.0 with the clock
    at NaN is refused; the others fire in time order."""
    eng = Engine()
    fired = []
    for delay in (3.0, 1.0):
        call_later(eng, delay, lambda d=delay: fired.append((d, eng.now)))
    with pytest.raises(ValueError):
        eng.timeout(float("nan"))
    call_later(eng, 2.0, lambda: fired.append((2.0, eng.now)))
    eng.run()
    assert fired == [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]
    assert eng.now == 3.0


def test_an_infinite_charge_inside_a_process_crashes_it():
    eng = Engine()
    cpu = CPU(eng)

    def body():
        yield from cpu.compute(float("inf"))

    process = eng.process(body())
    with pytest.raises(ProcessCrashed) as raised:
        eng.run_until(process, max_events=100)
    assert isinstance(raised.value.original, ValueError)
