"""Observability: tracing, metrics, auditing, provenance, and export.

Small, dependency-free layers that the rest of the system reports into
(none of them import other ``repro`` packages, so every subsystem may
instrument itself freely):

* :mod:`repro.obs.spans` — per-query hierarchical wall-time tracing.
  ``NaLIX.ask`` builds one :class:`Trace` per query and attaches it to
  ``QueryResult.trace``; the span tree doubles as the timing source for
  the result's ``*_seconds`` properties, and its engine spans are the
  plan operators (rows in/out, mqf cardinalities, let-cache hits).
* :mod:`repro.obs.metrics` — a thread-safe process-wide registry of
  named counters, gauges, and histograms (``METRICS``), with
  ``snapshot()`` / ``reset()``, exact sample percentiles, and JSON
  export.
* :mod:`repro.obs.audit` — an optional JSONL audit trail recording one
  line per query (sentence, status, error categories, emitted XQuery,
  the canonical answer digest, per-stage timings, provenance summary),
  with size-based rotation and a hardened shared reader
  (:func:`~repro.obs.audit.iter_records`) that chains rotated files
  and tolerates truncation.
* :mod:`repro.obs.answers` — the canonical answer normalizer and
  stable answer fingerprint (``answer_digest``) stamped on every
  ``QueryResult`` and compared by the serving canary and ``repro
  replay``.
* :mod:`repro.obs.provenance` — word → token → clause provenance
  records carried on ``QueryResult.provenance``.
* :mod:`repro.obs.explain` — renders provenance + plan operators +
  trace as a lineage report (text and JSON).
* :mod:`repro.obs.export` — standard wire formats: Chrome trace-event
  JSON, the Prometheus text exposition format, and the sliding-window
  latency tracker ``LATENCIES``.
* :mod:`repro.obs.quantiles` — the shared nearest-rank percentile
  helper every latency summary goes through.
* :mod:`repro.obs.profiler` — a dependency-free sampling profiler
  (``sys._current_frames()`` walked from a daemon thread) attributing
  collapsed stacks to the enclosing trace span; emits ``flamegraph.pl``
  collapsed text and speedscope JSON.
* :mod:`repro.obs.memory` — per-query memory accounting: peak RSS on
  every query, opt-in tracemalloc per-stage deltas and top-N
  allocation sites.
* :mod:`repro.obs.slo` — declarative availability/latency SLOs over the
  live request stream with Google-SRE multi-window burn-rate alerting.
* :mod:`repro.obs.sampler` — tail-based trace sampling: always retain
  errors, watchdog victims, and the slow tail; head-sample the rest.
* :mod:`repro.obs.recorder` — the byte-bounded in-memory flight
  recorder of retained traces, dumpable as JSONL/Chrome bundles.
* :mod:`repro.obs.tracecontext` — W3C ``traceparent`` parsing and
  formatting (the trace-id thread through client, server, audit log,
  metrics exemplars, and recorder).

See the "Observability" and "Explain" sections of README.md and
DESIGN.md for the metric naming scheme and the CLI surface
(``--trace``, ``--metrics``, ``--audit-log``, ``--explain``, and the
``explain`` / ``stats`` subcommands).
"""

from repro.obs.answers import (
    ANSWER_DIGEST_VERSION,
    EMPTY_ANSWER_DIGEST,
    answer_digest,
    canonical_value,
    normalize_answer,
)
from repro.obs.audit import (
    AuditLog,
    ReadStats,
    audit_entry,
    iter_records,
    read_audit_log,
)
from repro.obs.explain import Explanation, explain
from repro.obs.export import (
    LATENCIES,
    LatencyWindow,
    chrome_trace,
    chrome_trace_events,
    chrome_trace_json,
    prometheus_text,
)
from repro.obs.memory import (
    MemorySpec,
    MemoryTracker,
    activate_memory_tracking,
    current_memory_spec,
    peak_rss_bytes,
)
from repro.obs.metrics import METRICS, Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profiler import (
    ProfileSpec,
    SamplingProfiler,
    collapsed_text,
    merge_profiles,
    speedscope_document,
)
from repro.obs.provenance import (
    ClauseRecord,
    QueryProvenance,
    TokenRecord,
    ValidationRecord,
    token_records_from_tree,
    validation_records_from_feedback,
)
from repro.obs.quantiles import nearest_rank
from repro.obs.recorder import FlightRecorder, RecordedTrace
from repro.obs.sampler import SampleDecision, TailSampler
from repro.obs.slo import SLOEngine, SLOSpec, SLOTracker
from repro.obs.spans import Span, Trace, activate_trace, current_trace, span
from repro.obs.tracecontext import (
    format_traceparent,
    new_span_id,
    new_trace_id,
    parse_traceparent,
)

__all__ = [
    "ANSWER_DIGEST_VERSION",
    "EMPTY_ANSWER_DIGEST",
    "LATENCIES",
    "METRICS",
    "AuditLog",
    "ClauseRecord",
    "Counter",
    "Explanation",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "LatencyWindow",
    "MemorySpec",
    "MemoryTracker",
    "MetricsRegistry",
    "ProfileSpec",
    "QueryProvenance",
    "ReadStats",
    "RecordedTrace",
    "SLOEngine",
    "SLOSpec",
    "SLOTracker",
    "SampleDecision",
    "SamplingProfiler",
    "Span",
    "TailSampler",
    "TokenRecord",
    "Trace",
    "ValidationRecord",
    "activate_memory_tracking",
    "activate_trace",
    "answer_digest",
    "audit_entry",
    "canonical_value",
    "chrome_trace",
    "chrome_trace_events",
    "chrome_trace_json",
    "collapsed_text",
    "current_memory_spec",
    "current_trace",
    "explain",
    "format_traceparent",
    "iter_records",
    "merge_profiles",
    "nearest_rank",
    "new_span_id",
    "new_trace_id",
    "normalize_answer",
    "parse_traceparent",
    "peak_rss_bytes",
    "prometheus_text",
    "read_audit_log",
    "span",
    "speedscope_document",
    "token_records_from_tree",
    "validation_records_from_feedback",
]
