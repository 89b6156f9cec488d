"""The host-speed calibration loop behind *reference seconds*.

Raw ``time.process_time()`` of one benchmark round moves by 13-20 % between
back-to-back processes on a shared two-core host (frequency, cache and
neighbour effects), which is wider than any gain this repo is likely to
claim.  The same effects slow this fixed loop by the same factor, so every
cell's CPU seconds are divided by the loop's CPU seconds measured right
before and right after the cell: the ratio repeated within 1.3-2.0 % where
the raw numbers spread 13-20 % (sizing runs quoted in ``bench/README.md``).

The kernel is deliberately the simulator's instruction mix in miniature --
generator resumes, ``heapq`` push/pop, slot and dict access, 512-byte
``bytearray`` slices -- so interpreter-level slowdowns hit both alike.  It
must never change once results are being compared: a different loop is a
different unit.
"""

from __future__ import annotations

import heapq
import time

#: what one calibration loop costs on the reference host; a cell's reference
#: seconds are ``cpu_s / calib_s * REF_SECONDS``
REF_SECONDS = 0.300

_ROUNDS = 275_000


class _Slot:
    __slots__ = ("when", "seq", "hits")

    def __init__(self) -> None:
        self.when = 0.0
        self.seq = 0
        self.hits = 0


def _ticker(slot: _Slot):
    while True:
        slot.hits += 1
        yield slot.hits


def kernel(rounds: int = _ROUNDS) -> int:
    """The fixed loop; returns a checksum so no part can be optimised away."""
    slot = _Slot()
    ticker = _ticker(slot)
    resume = ticker.__next__
    heap: list[tuple[float, int]] = []
    table: dict[int, int] = {}
    sectors = bytearray(64 * 512)
    payload = bytes(range(256)) * 2
    checksum = 0
    for seq in range(rounds):
        slot.when += 0.000125
        slot.seq = seq
        heapq.heappush(heap, (slot.when + (seq * 7919 % 64) * 1e-6, seq))
        if len(heap) > 256:  # bounded, like the engine's pending set
            checksum += heapq.heappop(heap)[1]
        table[seq & 1023] = resume()
        checksum += table.get((seq * 31) & 1023, 0)
        at = (seq & 63) * 512
        sectors[at:at + 512] = payload
        checksum += sectors[at + (seq & 511)]
    return checksum


def calibrate() -> float:
    """CPU seconds one pass of the kernel takes right now."""
    start = time.process_time()
    kernel()
    return time.process_time() - start


def reference_seconds(cpu_s: float, calib_before: float,
                      calib_after: float) -> float:
    """*cpu_s* in reference seconds, given the bracketing calibrations."""
    return cpu_s / ((calib_before + calib_after) / 2.0) * REF_SECONDS
