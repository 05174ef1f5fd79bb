"""Machine-speed calibration for steady timings on a shared machine.

On a small shared machine the CPU's speed drifts by tens of percent over
seconds, in process CPU time as well as wall time.  A fixed pure-Python
loop, independent of pasan and built from the same kinds of work as the
interpreter (dict reads and writes, integer masking, bytes round-trips
through a page), slows down with it.  Timing that loop next to each
measured round and scaling the round by ``REFERENCE_S / loop time``
reports the round in reference seconds: the time it would have taken on
the reference machine (a 2-core x86-64 box with Python 3.11, unloaded),
on which the loop takes ``REFERENCE_S``.
"""
from __future__ import annotations

from time import perf_counter

STEPS = 25_000
REFERENCE_S = 0.022


def _loop(steps: int) -> int:
    regs: dict[int, int] = {}
    page = bytearray(4096)
    acc = 0
    for i in range(steps):
        regs[i & 63] = i
        v = (regs[i & 63] * 2654435761) & 0xFFFFFFFF
        off = (v >> 20) & 4092
        page[off:off + 4] = v.to_bytes(4, "little")
        acc = (acc + int.from_bytes(page[off:off + 4], "little")) & 0xFFFFFFFF
    return acc


def loop_time() -> float:
    """Seconds the calibration loop takes right now."""
    start = perf_counter()
    _loop(STEPS)
    return perf_counter() - start


class Speedometer:
    """Tracks the machine's speed by timing the loop between pieces of
    measured work."""

    def __init__(self):
        self._last = loop_time()

    def factor(self) -> float:
        """Reference seconds per measured second for the work done since
        the previous call: from the loop times just before and after it."""
        now = loop_time()
        factor = REFERENCE_S / ((self._last + now) / 2)
        self._last = now
        return factor
