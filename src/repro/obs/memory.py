"""Per-query memory accounting: tracemalloc deltas and peak RSS.

Two cost tiers, because the two signals cost wildly different amounts:

* **Peak RSS** (``resource.getrusage``) is a couple of microseconds, so
  every ``ask`` records it unconditionally — each query result and
  audit record carries ``peak_rss_bytes``, the process high-water mark
  after the query finished.
* **Allocation tracking** (``tracemalloc``) multiplies allocation cost
  by 2–4×, so it is opt-in: ``ask(..., memory=True)``, the ``--memory``
  CLI flag, or a context-wide :func:`activate_memory_tracking` block.
  When enabled, a :class:`MemoryTracker` snapshots the traced heap
  around every pipeline-stage span (``alloc_bytes`` /
  ``peak_alloc_bytes`` span attributes), accumulates per-stage deltas,
  and finishes with a top-N allocation-site table that ``explain``
  renders alongside the plan statistics.

``tracemalloc`` is process-global, so concurrent trackers are
refcounted: the first ``start()`` begins tracing (unless something else
already did), the last ``stop()`` ends it.  On platforms without the
``resource`` module (Windows) RSS reads degrade to 0 rather than
failing — the tracker never raises into the query path.

Concurrency caveat: the traced heap is one process-wide number, so when
several *tracked* queries run at once (``repro serve`` with
``--memory``-style activation), per-stage deltas attribute the whole
process's allocations to whichever stage happened to be measuring —
the numbers are blended, not wrong per line, and the refcount keeps
start/stop correct.  Peak RSS is likewise process-global by nature.
For per-query isolation under concurrency, track one query at a time;
the serving layer leaves allocation tracking off by default for
exactly this reason.
"""

from __future__ import annotations

import sys
import tracemalloc
from contextvars import ContextVar
from repro.analysis.racecheck import named_lock

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None

#: Allocation sites kept in the top-N table.
DEFAULT_TOP_SITES = 10


def peak_rss_bytes():
    """The process peak-RSS high-water mark in bytes (0 if unknown).

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; the value
    is monotonic for the process lifetime, so per-query growth is the
    difference between readings, and "after" is the interesting number.
    """
    if resource is None:
        return 0
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return int(usage)
    return int(usage) * 1024


class MemorySpec:
    """Memory-tracking parameters, coercible from ``memory=``."""

    __slots__ = ("top_sites",)

    def __init__(self, top_sites=DEFAULT_TOP_SITES):
        self.top_sites = top_sites

    @classmethod
    def coerce(cls, value):
        """``True`` / a spec -> :class:`MemorySpec`; falsy -> ``None``."""
        if value is None or value is False:
            return None
        if value is True:
            return cls()
        if isinstance(value, cls):
            return value
        raise TypeError(
            f"memory must be bool or MemorySpec; got {type(value).__name__}"
        )

    def __repr__(self):
        return f"MemorySpec(top_sites={self.top_sites})"


# -- process-global tracemalloc refcount ------------------------------------

_TRACEMALLOC_LOCK = named_lock("obs.memory.tracemalloc")
_TRACEMALLOC_USERS = 0
_TRACEMALLOC_OURS = False


def _acquire_tracemalloc():
    global _TRACEMALLOC_USERS, _TRACEMALLOC_OURS
    with _TRACEMALLOC_LOCK:
        _TRACEMALLOC_USERS += 1
        if _TRACEMALLOC_USERS == 1:
            _TRACEMALLOC_OURS = not tracemalloc.is_tracing()
            if _TRACEMALLOC_OURS:
                tracemalloc.start()


def _release_tracemalloc():
    global _TRACEMALLOC_USERS, _TRACEMALLOC_OURS
    with _TRACEMALLOC_LOCK:
        _TRACEMALLOC_USERS -= 1
        if _TRACEMALLOC_USERS == 0 and _TRACEMALLOC_OURS:
            tracemalloc.stop()
            _TRACEMALLOC_OURS = False


class _NoopStage:
    """Stand-in stage context when allocation tracking is off."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        return False


_NOOP_STAGE = _NoopStage()


class _StageMeasurement:
    """Measures one pipeline stage's traced-heap delta onto its span."""

    __slots__ = ("_tracker", "_span", "_before")

    def __init__(self, tracker, span):
        self._tracker = tracker
        self._span = span
        self._before = None

    def __enter__(self):
        current, _ = tracemalloc.get_traced_memory()
        self._before = current
        tracemalloc.reset_peak()
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        current, peak = tracemalloc.get_traced_memory()
        delta = current - self._before
        stage_peak = max(0, peak - self._before)
        span = self._span
        span.set("alloc_bytes", delta)
        span.set("peak_alloc_bytes", stage_peak)
        self._tracker._note_stage(span.name, delta, stage_peak, peak)
        return False


class MemoryTracker:
    """One query's memory account; attached as ``QueryResult.memory``.

    Always records ``peak_rss_bytes`` (cheap).  With ``tracked=True``
    (built from a :class:`MemorySpec`) it also records the net and peak
    traced-heap deltas for the whole query and per stage, plus the
    top-N allocation sites by retained size.
    """

    def __init__(self, tracked=False, top_sites=DEFAULT_TOP_SITES):
        self.tracked = tracked
        self.top_sites_limit = top_sites
        self.stages = {}          # name -> {"alloc_bytes", "peak_alloc_bytes", "calls"}
        self.alloc_bytes = None   # net traced-heap delta over the query
        self.peak_alloc_bytes = None
        self.peak_rss_bytes = 0   # process high-water after the query
        self.rss_before_bytes = 0
        self.top_sites = []
        self._base = 0
        self._peak_watermark = 0
        self._started = False

    @classmethod
    def from_spec(cls, spec):
        """Build a tracker; ``spec=None`` means RSS-only accounting."""
        if spec is None:
            return cls(tracked=False)
        return cls(tracked=True, top_sites=spec.top_sites)

    # -- lifecycle ---------------------------------------------------------

    def start(self):
        self.rss_before_bytes = peak_rss_bytes()
        if self.tracked and not self._started:
            _acquire_tracemalloc()
            self._started = True
            current, _ = tracemalloc.get_traced_memory()
            self._base = current
            self._peak_watermark = current
            tracemalloc.reset_peak()
        return self

    def stop(self):
        """Finalize totals and the top-site table (idempotent)."""
        self.peak_rss_bytes = peak_rss_bytes()
        if not self._started:
            return self
        current, peak = tracemalloc.get_traced_memory()
        self._peak_watermark = max(self._peak_watermark, peak, current)
        self.alloc_bytes = current - self._base
        self.peak_alloc_bytes = max(0, self._peak_watermark - self._base)
        try:
            snapshot = tracemalloc.take_snapshot()
            stats = snapshot.statistics("lineno")[: self.top_sites_limit]
            self.top_sites = [
                {
                    "site": f"{stat.traceback[0].filename}:"
                            f"{stat.traceback[0].lineno}",
                    "size_bytes": stat.size,
                    "count": stat.count,
                }
                for stat in stats
            ]
        finally:
            self._started = False
            _release_tracemalloc()
        return self

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback):
        self.stop()
        return False

    # -- per-stage measurement ---------------------------------------------

    def stage(self, span):
        """Context manager measuring one stage span's heap delta.

        No-op (a shared empty context) when allocation tracking is off,
        so the instrumented pipeline pays nothing by default.
        """
        if not self._started:
            return _NOOP_STAGE
        return _StageMeasurement(self, span)

    def _note_stage(self, name, delta, stage_peak, peak):
        entry = self.stages.get(name)
        if entry is None:
            entry = self.stages[name] = {
                "alloc_bytes": 0, "peak_alloc_bytes": 0, "calls": 0
            }
        entry["alloc_bytes"] += delta
        entry["peak_alloc_bytes"] = max(entry["peak_alloc_bytes"], stage_peak)
        entry["calls"] += 1
        # reset_peak() per stage clobbers the interpreter's query-level
        # peak, so keep our own absolute watermark (``peak`` is absolute
        # since the last reset, which is always >= the stage-start level).
        self._peak_watermark = max(self._peak_watermark, peak)

    # -- export ------------------------------------------------------------

    @property
    def rss_growth_bytes(self):
        """Peak-RSS growth across the query (0 when the peak predates it)."""
        return max(0, self.peak_rss_bytes - self.rss_before_bytes)

    def to_dict(self):
        entry = {
            "tracked": self.tracked,
            "peak_rss_bytes": self.peak_rss_bytes,
            "rss_growth_bytes": self.rss_growth_bytes,
        }
        if self.alloc_bytes is not None:
            entry["alloc_bytes"] = self.alloc_bytes
            entry["peak_alloc_bytes"] = self.peak_alloc_bytes
        if self.stages:
            entry["stages"] = {
                name: dict(stats) for name, stats in self.stages.items()
            }
        if self.top_sites:
            entry["top_sites"] = [dict(site) for site in self.top_sites]
        return entry

    def __repr__(self):
        if self.alloc_bytes is None:
            return f"MemoryTracker(rss={self.peak_rss_bytes})"
        return (
            f"MemoryTracker(alloc={self.alloc_bytes}, "
            f"peak={self.peak_alloc_bytes}, rss={self.peak_rss_bytes})"
        )


# -- context activation (mirrors repro.obs.spans) ---------------------------

_CURRENT_MEMORY_SPEC: ContextVar[MemorySpec | None] = ContextVar(
    "repro_obs_memory_spec", default=None
)


def current_memory_spec():
    """The :class:`MemorySpec` active in this context, or None."""
    return _CURRENT_MEMORY_SPEC.get()


class _MemoryActivation:
    __slots__ = ("_spec", "_tokens")

    def __init__(self, spec):
        self._spec = spec
        self._tokens = []  # LIFO: safe under re-entrant use

    def __enter__(self):
        self._tokens.append(_CURRENT_MEMORY_SPEC.set(self._spec))
        return self._spec

    def __exit__(self, exc_type, exc_value, traceback):
        _CURRENT_MEMORY_SPEC.reset(self._tokens.pop())
        return False


def activate_memory_tracking(spec=True):
    """Track allocations for every ``ask`` inside the ``with`` block."""
    return _MemoryActivation(MemorySpec.coerce(spec))
