"""A fixed pure-Python reference kernel that tracks the machine's speed.

The reference machine is shared with other tenants, and its speed swings by
up to 2x in phases from seconds to minutes long; a run can lie wholly
inside a slow phase.  CPU time slows just as wall time does, so it is no
way out.  The benchmark therefore runs this kernel between operations and
scales each operation's time by ``REFERENCE_MS / (local kernel time)``: a
slow phase slows both alike, and the ratio stays within a few percent.  The
kernel uses nothing from ``pathalg``, so a change to the program moves the
scaled times exactly as it moves the raw ones.
"""
from __future__ import annotations

import statistics
import time
from fractions import Fraction

# median time of one ``reference()`` call on the reference machine (2 vCPUs
# of a shared Intel Xeon, CPython 3.11) in a quiet phase; scaled times read
# in milliseconds of that machine at that speed
REFERENCE_MS = 0.40
# reference timings on each side of an operation whose median scales it
WINDOW = 4


def reference():
    """Dict, tuple, string, sorting and Fraction work, like the package's
    own inner loops, on a fixed input."""
    table = {}
    acc = Fraction(0)
    for i in range(400):
        key = (i % 37, i % 11, "e%d" % (i % 13))
        table[key] = table.get(key, 0) + i
        if i % 8 == 0:
            acc += Fraction(i + 1, i % 7 + 2)
    items = sorted(table.items())
    text = ",".join(key[2] for key, _ in items[:50])
    return len(items), acc, len(text)


def time_reference() -> float:
    """Seconds one ``reference()`` call takes now."""
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def scale_now() -> float:
    """Scale factor at this moment, from a few timings after a warm-up."""
    for _ in range(WINDOW):
        reference()
    refs = [time_reference() for _ in range(2 * WINDOW + 1)]
    return scale_at(refs, WINDOW)


def scale_at(refs: list[float], k: int) -> float:
    """Factor that turns a time measured next to ``refs[k]`` into the time
    it would take at reference speed."""
    local = statistics.median(refs[max(0, k - WINDOW):k + WINDOW + 1])
    return REFERENCE_MS / (local * 1000.0)
