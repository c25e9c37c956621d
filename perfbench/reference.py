"""A fixed pure-Python computation that measures the machine's speed.

On a shared host the speed of a core drifts by 10-15% over tens of
seconds (a fixed loop timed in 20-second windows over five minutes had an
interquartile range of 16% of its median).  The worker runs this kernel
after every timed operation, and each set-up probe runs it after its
import; run.py scales a run's times by NOMINAL_NS over the kernel's mean
time in that run, so runs taken at different moments compare.  The kernel
touches nothing of tropcyl, so a change to tropcyl moves the scaled times
exactly as it moves the raw ones.
"""

from fractions import Fraction
from time import perf_counter_ns

# Mean time of kernel() on the machine the baseline was taken on (2-core
# Xeon VM at 2.1 GHz, Python 3.11.7).
NOMINAL_NS = 800_000


def kernel():
    """Dict updates on tuple keys, Fraction sums and a sort (~1 ms)."""
    acc = {}
    total = Fraction(0)
    for i in range(1, 600):
        key = (i * 7919 % 1013, i % 17)
        acc[key] = acc.get(key, 0) + i
        if i % 16 == 0:
            total += Fraction(i % 97, i % 13 + 1)
    return sorted(acc.items()), total


def mean_ns(repeat: int) -> float:
    """Mean time of kernel() over `repeat` runs, in nanoseconds."""
    t0 = perf_counter_ns()
    for _ in range(repeat):
        kernel()
    return (perf_counter_ns() - t0) / repeat
