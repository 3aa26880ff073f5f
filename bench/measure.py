"""Workload facts and small statistics shared by the benchmark's files."""

from __future__ import annotations

import json
import resource
import statistics

#: Collection size of each in-process workload (None: paper scale, the
#: size of ``DblpConfig.paper_scale()``).
SCALES = {"tasks-paper": None, "unique-paper": None, "unique-tiny": 20}


def dblp_config(workload, seed):
    """The DBLP generator settings of an in-process workload."""
    from repro.data import DblpConfig

    books = SCALES[workload]
    if books is None:
        config = DblpConfig.paper_scale()
        config.seed = seed
        return config
    return DblpConfig(books=books, seed=seed)


def percentile(samples, fraction):
    """The ``fraction`` quantile of ``samples`` (linear interpolation)."""
    if len(samples) == 1:
        return samples[0]
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    index = round(fraction * 100)
    return statistics.median(samples) if index == 50 else cuts[index - 1]


def quartiles(values):
    """(first quartile, median, third quartile) as compare.py reports them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def peak_rss_mb():
    """This process's peak resident set size in MB (Linux ``ru_maxrss``)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def emit(tag, payload):
    """One protocol line from a workload process to run.py."""
    print(f"{tag} {json.dumps(payload)}", flush=True)
