"""Shared order statistics: nearest-rank percentiles.

Every percentile in the repo — histogram summaries, the sliding
latency window, the ``stats`` CLI table, and the benchmark harness —
goes through :func:`nearest_rank`, so they all agree on what "p95"
means.  Before this module existed each call site carried its own
``ordered[int(fraction * n)]`` copy, which reads one element *high*
whenever ``fraction * n`` lands on an integer (the p50 of four samples
came back as the third-smallest, and the p95 of a 20-sample window as
the maximum), so small benchmark repeats reported biased percentiles.
"""

from __future__ import annotations

import math


def nearest_rank(samples, fraction):
    """The nearest-rank percentile of ``samples`` (any iterable).

    Standard definition: the smallest value such that at least
    ``fraction`` of the samples are less than or equal to it, i.e.
    ``sorted(samples)[ceil(fraction * n) - 1]``.  ``fraction`` is in
    ``[0, 1]``; returns 0.0 for an empty sample set.  ``samples`` need
    not be pre-sorted.
    """
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    rank = math.ceil(fraction * len(ordered))
    return ordered[min(len(ordered) - 1, max(rank - 1, 0))]

