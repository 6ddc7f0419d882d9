"""
The reference computation every timing is normalised by.

The machine this benchmark was built on switches, for seconds at a time,
between a fast and a slow state, so raw wall time does not repeat from run
to run.  A fixed pure-Python computation timed next to each item slows down
with it.  Its mix follows the program's own work: tuples built by
comprehension, small frozen objects validated on construction, small dicts
accumulated with get, and big-integer products and exact quotients.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

# Reference time at nominal speed, in seconds.  It is fixed: changing it
# rescales every normalised time.  README.md states the same value.
NOMINAL_S = 0.001


def normalise(raw_s: float, measured_ref_s: float) -> float:
    """Seconds at reference speed: raw x nominal / measured."""
    return raw_s * NOMINAL_S / measured_ref_s


@dataclass(frozen=True)
class _Perm:
    image: tuple

    def __post_init__(self) -> None:
        if sorted(self.image) != list(range(len(self.image))):
            raise ValueError("not a permutation")


def reference_work() -> int:
    """A fixed computation; returns a checksum so nothing is optimised away."""
    n = 10
    a = _Perm(tuple((3 * i + 1) % n for i in range(n)))
    b = _Perm(tuple((7 * i + 2) % n for i in range(n)))
    for _ in range(100):
        a = _Perm(tuple(b.image[x] for x in a.image))
    poly = {e: e % 5 - 2 for e in range(8)}
    for _ in range(10):
        acc: dict = {}
        for e1, c1 in poly.items():
            for e2, c2 in poly.items():
                acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
        poly = {e % 8: c % 1000003 for e, c in acc.items()}
    x, y = 3 ** 300, 7 ** 200
    for _ in range(150):
        x = x * y // y + 1
    return sum(a.image) + sum(poly.values()) + x % 97


def measure() -> float:
    """Wall seconds of one reference computation."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0
