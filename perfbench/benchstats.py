"""Statistics of the benchmark, computed from raw samples.

A failed operation (an error, a refused connection, a timeout, a
non-2xx reply or a wrong answer) stays in its latency sample as an
infinite latency, so it counts as missing every latency limit and
pushes every quantile up instead of vanishing from the sample.
"""

import math
import statistics

FAILED = math.inf

# a percentile is reported only when at least this many samples lie
# beyond it, so one slow operation cannot set it alone
MIN_BEYOND = 10


def with_failures(latencies, ok):
    """Latencies with each failed operation's replaced by FAILED."""
    return [x if good else FAILED for x, good in zip(latencies, ok)]


def quantile(samples, q):
    """The q-quantile (0 <= q <= 1) of raw samples, interpolating
    linearly between neighbouring order statistics."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("quantile of an empty sample")
    pos = q * (len(xs) - 1)
    lo, hi = math.floor(pos), math.ceil(pos)
    a, b = xs[lo], xs[hi]
    if lo == hi or a == b:
        return a
    if math.isinf(b):
        return FAILED
    return a + (b - a) * (pos - lo)


def scale(latencies, reference, reference_ms):
    """Latencies scaled to a machine on which the reference kernel takes
    reference_ms: reference[i] and reference[i + 1] are the kernel's
    times measured just before and just after operation i."""
    return [x * 2.0 * reference_ms / (reference[i] + reference[i + 1])
            for i, x in enumerate(latencies)]


def by_kind(latencies, kinds, q):
    """Each kind's q-quantile of the latencies of its operations."""
    groups = {}
    for x, k in zip(latencies, kinds):
        groups.setdefault(k, []).append(x)
    return {k: quantile(xs, q) for k, xs in groups.items()}


def round_latencies(counts, per_kind):
    """The latencies of one round that runs counts[k] operations of
    each kind k, each at its kind's figure in per_kind."""
    return [per_kind[k] for k, n in counts.items() for _ in range(n)]


def beyond(n, q):
    """How many of n samples lie beyond the q-quantile."""
    return n * (1.0 - q)


def resolves(n, q):
    """Whether n samples resolve the q-quantile: at least MIN_BEYOND
    samples beyond it. p50 needs 20 samples, p90 100, p99 1000."""
    return beyond(n, q) >= MIN_BEYOND - 1e-9


def highest_resolved(n, candidates=(0.99, 0.9, 0.8, 0.5)):
    """The highest of the candidate quantiles that n samples resolve,
    or None when they resolve none."""
    return next((q for q in candidates if resolves(n, q)), None)


def misses(latencies, limit):
    """Operations that missed a latency limit, failures included."""
    return sum(1 for x in latencies if x > limit)


def fail_frac(attempted, failed):
    return failed / attempted if attempted else 1.0


def summary(values):
    """Median and quartiles of repeated runs; the quartiles are
    statistics.quantiles(values, n=4)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def spread(values):
    """Distance between the quartiles as a share of the median."""
    med, q1, q3 = summary(values)
    return (q3 - q1) / med if med else math.inf
