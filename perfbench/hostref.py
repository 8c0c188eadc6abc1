"""Host-speed reference, the virtual clock and the statistics every metric uses.

The CPU speed of the 2-vCPU virtual machine the benchmark was written on
drifts by up to ~1.8x over seconds to minutes, and neither CPU time nor
hardware counters remove the drift.  A short fixed
reference kernel (a pure-Python loop, numpy trig on an L2-sized array and
one freshly allocated 4 MiB array) therefore runs on a timer throughout each
run, and every timing is host-adjusted op by op:

    adjusted = raw * NOMINAL_REF_MS / median(reference samples of the op)

where the samples of an op are those taken while it ran, widened to the
nearest ones until there are at least three.  The time spent inside the
reference kernel is taken off a virtual clock, so op latencies and span
durations never include it.
"""

import signal
import statistics
import time

import numpy as np
from scipy.special import betainc

# Median reference time on a typical minute of that machine; any constant works, it only fixes the unit scale.
NOMINAL_REF_MS = 3.0
SAMPLE_PERIOD_S = 0.05

# two arrays of 64 Ki float64 = 1 MiB: fit the 2 MiB per-core L2 cache of that host.
_REF_N = 1 << 16
_PY_LOOP = 10000
# 4 MiB, above the allocator's mmap threshold, so each sample pays fresh page
# faults as the library's large grids and lists do.  Without it the kernel
# overstated the host's fast/slow phases for the numpy grid work of verdict
# (residual log-sd over 5 s windows 0.089, with it 0.054).
_FRESH_N = 1 << 19


class HostReference:
    """Runs the reference kernel every SAMPLE_PERIOD_S of wall time (SIGALRM)
    and keeps a clock that excludes the time spent in it."""

    def __init__(self):
        self._a = np.linspace(0.0, 1.0, _REF_N)
        self._b = np.empty_like(self._a)
        self.samples_ms = []
        self.sample_times = []
        self._stolen = 0.0
        self._previous = None

    def kernel_ms(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(_PY_LOOP):
            acc += (i * i) % 7
        np.sin(self._a, out=self._b)
        np.cos(self._b, out=self._b)
        fresh = np.ones(_FRESH_N)
        del fresh
        return (time.perf_counter() - t0) * 1e3

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.sample_times.append(t0)
        self.samples_ms.append(self.kernel_ms())
        self._stolen += time.perf_counter() - t0

    def clock(self) -> float:
        """perf_counter minus the time spent sampling the reference."""
        return time.perf_counter() - self._stolen

    def _on_alarm(self, signum, frame):
        self.sample()

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None


def adjustment_factor(ref_samples_ms) -> float:
    """Multiplier that maps raw times to the nominal host speed."""
    if not ref_samples_ms:
        raise ValueError("no reference samples")
    return NOMINAL_REF_MS / statistics.median(ref_samples_ms)


def op_factors(windows, sample_times, samples_ms, min_samples=3):
    """Adjustment factor of each op from the reference samples taken during
    it, widened to the nearest samples until there are min_samples."""
    order = np.argsort(sample_times)
    times = np.asarray(sample_times)[order]
    values = np.asarray(samples_ms)[order]
    factors = []
    for start, end in windows:
        lo = int(np.searchsorted(times, start, "left"))
        hi = int(np.searchsorted(times, end, "right"))
        while hi - lo < min_samples and (lo > 0 or hi < len(times)):
            lo, hi = max(0, lo - 1), min(len(times), hi + 1)
        factors.append(NOMINAL_REF_MS / float(np.median(values[lo:hi])))
    return factors


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


# Below this many values the plain order statistic is used.
HD_MIN_VALUES = 10


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics.  With a few dozen ops of very different cost it does
    not jump from one op to its neighbour as the plain order statistic does.

    With fewer than HD_MIN_VALUES values the plain order statistic
    (interpolated, so the median of an even count is the mean of the middle
    two): there the Beta weights would give the outer values a large share,
    and one slow op would dominate every quantile."""
    xs = np.sort(np.asarray(values, dtype=float))
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n < HD_MIN_VALUES:
        return float(np.quantile(xs, p))
    cdf = betainc(p * (n + 1), (1.0 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(cdf), xs))


def tail_percentile(n):
    """The highest percentile with at least ten samples beyond it, but never
    below p90: with fewer than 100 ops p90 is used, with fewer than ten
    samples beyond it."""
    return max(90.0, 100.0 * (n - 10) / n)


def tail(values):
    """(value, label) of the op latency tail."""
    p = tail_percentile(len(values))
    return quantile(values, p / 100.0), f"p{p:.2f} of {len(values)}"
