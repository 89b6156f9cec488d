"""Reference model of the CPU: the mutex-and-timeout server it replaced.

A compute charge here costs two events per slice: the ``Lock.acquire()``
grant, which the engine may run in place, then a ``Timeout`` for the hold.
It is kept only so the equivalence tests can require the shipped one-event
server in ``repro.sim.cpu`` to produce the same simulated timestamps and
accounting.
"""

from typing import Generator

from repro.sim import Engine, Lock


class ReferenceCPU:
    def __init__(self, engine: Engine, quantum: float = 0.005) -> None:
        self.engine = engine
        self.quantum = quantum
        self._mutex = Lock(engine)
        self.busy_time = 0.0

    def compute(self, seconds: float) -> Generator:
        if seconds < 0:
            raise ValueError(f"negative compute time: {seconds}")
        if seconds == 0.0:
            return
        process = self.engine.current_process
        remaining = seconds
        while remaining > 0.0:
            slice_len = min(remaining, self.quantum)
            yield from self._mutex.acquire()
            try:
                yield self.engine.timeout(slice_len)
            finally:
                self._mutex.release()
            remaining -= slice_len
            self.busy_time += slice_len
            if process is not None:
                process.cpu_time += slice_len
