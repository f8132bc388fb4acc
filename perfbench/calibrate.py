"""Machine-speed reference for the wall-clock metrics.

On a shared host the same pure-Python code runs up to twice as fast in
one minute as in the next, and the slowdown is per core: a busy loop
in a second process on another core does not see it. So each timed
iteration runs a fixed reference workload on the benchmark's own
thread right before and right after the timed code. The mean of the
two rates, divided by :data:`NOMINAL_OPS_PER_S`, is the iteration's
``speed``. A run divides its mean wall rate by :func:`factor` of its
speeds and multiplies its set-up time by it, giving the figure the
code would show with the reference running at its nominal rate.

The reference does what the engine does most: dict updates on tuple
keys, small-object method calls, list appends, a deque and a sort.
"""
import random
import statistics
from collections import deque
from time import perf_counter

#: reference operations per second taken as speed 1.0 (the median of
#: this loop on a 4-core x86-64 container under CPython 3.11)
NOMINAL_OPS_PER_S = 170_000.0

#: operations per reference call; about 0.25 s at the nominal rate
OPS = 40_000

#: how far the engine's wall rate moves with the reference's: on a
#: shared 4-core x86-64 host the least-squares slope of log rate on log
#: speed was 0.77 to 0.92 in five fits (per iteration over three
#: 4-minute probes, per run over ten 40 s runs of each workload), and
#: scaling by the full speed under-stated fast phases by up to 10%
ELASTICITY = 0.85


class _Pane:
    __slots__ = ("counts", "n")

    def __init__(self):
        self.counts = {}
        self.n = 0

    def add(self, key):
        self.counts[key] = self.counts.get(key, 0) + 1
        self.n += 1


def _reference(ops: int) -> int:
    rng = random.Random(1)
    panes = [_Pane() for _ in range(16)]
    fifo = deque(maxlen=1024)
    for i in range(ops):
        key = (rng.randrange(5000), i % 300)
        panes[i & 15].add(key)
        fifo.append(key)
    rows = [(v, k, str(v)) for p in panes for k, v in p.counts.items()]
    rows.sort(key=lambda r: (r[0], r[1]))
    return len(rows) + len(fifo)


def reference_rate(ops: int = OPS) -> float:
    """Reference operations per wall second, measured now."""
    t = perf_counter()
    _reference(ops)
    return ops / (perf_counter() - t)


def speed(before: float, after: float) -> float:
    """Relative machine speed over an interval bracketed by two
    :func:`reference_rate` readings (1.0 is nominal)."""
    return (before + after) / 2.0 / NOMINAL_OPS_PER_S


def factor(speeds) -> float:
    """How much faster than nominal the machine ran the code over a
    run's iterations: their mean speed to the power ELASTICITY. Scaling
    the run as a whole removes the slow swings of machine speed between
    runs without adding each reference reading's own noise to its
    iteration."""
    return statistics.fmean(speeds) ** ELASTICITY
