"""Machine-speed reference for normalizing timings on a shared host.

On a host shared with other tenants the speed of one core drifts by 20-30%
within seconds to minutes, which would swamp any change under test. The
benchmark runs a short fixed pure-Python reference loop (bitmask walks,
list appends and dict updates, the same kinds of work cellkit's scalar
paths do) before the first operation of a pass and after every operation,
and expresses each operation's time at the speed at which one chunk of the
loop takes REFERENCE_S: an operation that took t seconds while the chunks
around it took c seconds on average is reported as t * REFERENCE_S / c. A
change to cellkit moves t but not c.
"""

from __future__ import annotations

import statistics
from time import perf_counter

REFERENCE_S = 0.004
_ITERATIONS = 1_500


def chunk() -> float:
    """Time one chunk of the reference loop, in seconds."""
    t0 = perf_counter()
    table: dict[int, int] = {}
    masks: list[int] = []
    for i in range(_ITERATIONS):
        bits = (i * 2654435761) & 0xFFFFF
        out = 0
        while bits:
            low = bits & -bits
            out |= 1 << (low.bit_length() * 7 % 23)
            bits ^= low
        masks.append(out)
        table[out % 4093] = i
    return perf_counter() - t0


def reference_time(chunks: int = 5) -> float:
    """Median time of the reference loop over a few chunks, in seconds."""
    return statistics.median(chunk() for _ in range(chunks))


def scale(reference: float) -> float:
    """Factor that converts a timing taken at this reference time to REFERENCE_S speed."""
    return REFERENCE_S / reference
