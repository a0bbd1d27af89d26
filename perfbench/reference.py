"""A fixed pure-Python task whose time probes the host's speed.

    python3 -S perfbench/reference.py      # prints the task's seconds

It does the kind of work superdenom does: a tuple-keyed dict that grows
to about 20 MB, big integers and Fractions.  A shared host slows such work
mostly through the caches and memory it shares, so the probe needs a
working set of the program's size.  run.py runs it in a child of its own
between jobs: the child's ru_maxrss counts the parent's resident set at
the spawn, so the probe must not grow the parent.
"""

from __future__ import annotations

import time
from fractions import Fraction


def task() -> int:
    table = {}
    for i in range(150000):
        key = (i % 101, i % 89, 7 * i % 83)
        table[key] = table.get(key, 0) + i * i
    total = Fraction(0)
    for i in range(15000):
        total += Fraction(i % 13, i % 7 + 1)
    return len(table) + total.denominator


if __name__ == "__main__":
    start = time.perf_counter()
    task()
    print(time.perf_counter() - start)
