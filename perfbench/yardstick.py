"""The speed of the machine, timed inside the process being measured.

On a shared host the same pass runs up to 2x slower over minutes, every
op of it slowing together, and two processes on different vCPUs see
different slowdowns. So worker.py times this fixed kernel between its ops,
and each CLI call times it in an exit hook, and the *_ref metrics are op
times divided by it. The kernel is interpreted tuple, dict and Fraction
work, like ncbell's, but it is this file's own code, so a change to ncbell
cannot move it.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# two polynomials in noncommuting letters, word -> coefficient, 100 terms each
_A, _B = ({tuple(int(d) for d in f"{i + 100 * s:o}"): Fraction(i - 50, 1 + i % 11)
           for i in range(1, 101)} for s in (1, 2))


def yardstick() -> float:
    """Seconds the 10,000 term products of _A * _B take now, summed into
    at most 4,096 words so that the caller's peak memory does not move.
    The collector is off meanwhile, so that the caller's heap is not
    traversed; everything the kernel allocates is freed by refcount."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        out: dict = {}
        for w1, c1 in _A.items():
            for w2, c2 in _B.items():
                w = (w1 + w2)[:4]
                out[w] = out.get(w, 0) + c1 * c2
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
