"""Summary statistics for latency and timing samples.

Percentiles use the Harrell–Davis estimator: a Beta-weighted average of
all order statistics. The simulated engine's latencies fall on a grid
set by its scheduler slice, so a plain sample median snaps to a grid
point and moves in whole-slice steps between inputs; the Harrell–Davis
estimate moves smoothly with the share of samples in each step. It is
deterministic, so equal samples still give bit-identical figures.
"""
import math
import statistics


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the regularized incomplete beta function."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c, d = 1.0, 1.0 - qab * x / qap
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + aa / c
        c = c if abs(c) > tiny else tiny
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + aa / c
        c = c if abs(c) > tiny else tiny
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-14:
            break
    return h


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def hd_quantile(samples, p: float) -> float:
    """Harrell–Davis estimate of the ``p`` quantile (0 < p < 1)."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n == 1:
        return float(xs[0])
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    out, prev = 0.0, 0.0
    for i, x in enumerate(xs, start=1):
        cur = betainc(a, b, i / n)
        out += (cur - prev) * x
        prev = cur
    return out


def latency_summary(samples) -> dict:
    """Median and tail of ``samples``.

    The tail is the highest percentile with at least ten samples beyond
    it. With twenty samples or fewer that percentile is not above the
    median, and the tail is the largest sample (percentile 100).
    """
    n = len(samples)
    p = (n - 10) / n
    if p <= 0.5:
        tail, p = float(max(samples)), 1.0
    else:
        tail = hd_quantile(samples, p)
    return {"n": n, "p50": hd_quantile(samples, 0.5), "tail": tail, "tail_pct": 100.0 * p}


def spread(values) -> float:
    """Interquartile range as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
