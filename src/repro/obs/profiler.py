"""Dependency-free sampling profiler with trace-span attribution.

A :class:`SamplingProfiler` runs a background daemon thread that wakes
``hz`` times per second, grabs the target thread's current Python stack
via ``sys._current_frames()``, and records it together with the name of
the innermost open span of the query's :class:`~repro.obs.spans.Trace`.
That one extra field is what makes the output actionable: a collapsed
stack does not just say "``_structural_join`` is hot", it says
"``_structural_join`` is hot *inside the evaluate stage*", so profile
data lines up with the per-stage timings in traces and audit records.

Output formats (both renderable without any third-party package):

* :meth:`SamplingProfiler.collapsed_text` — Brendan Gregg's collapsed
  stack format, one ``frame;frame;... count`` line per distinct stack,
  consumable by ``flamegraph.pl`` and https://www.speedscope.app;
* :meth:`SamplingProfiler.speedscope` — a speedscope JSON document
  (``type: sampled``), which Perfetto also imports.

Pass ``ask(..., profile=True)`` (or an hz number, or a
:class:`ProfileSpec`) to profile one query::

    result = nalix.ask(..., profile=ProfileSpec(hz=499))
    result.profile          # a stopped profiler

Safety: the sampler is a daemon thread, ``stop()`` is idempotent, and
the context-manager form stops the thread on exception paths; a failed
sample (a thread that exited mid-walk) is counted in ``errors`` and
never kills the sampling loop.  Overhead is bounded by construction —
the sampler only *reads* frames under the GIL, so the profiled query
pays roughly one stack walk per sample tick (see
``tests/obs/test_profiler.py`` for the pinned overhead bound).
"""

from __future__ import annotations

import os
import sys
import threading
import time

from repro.analysis.racecheck import named_lock

#: Default sampling rate.  Prime, so the sampler does not phase-lock
#: with millisecond-granular work loops; high enough that a ~10 ms
#: pipeline stage still collects a handful of samples.
DEFAULT_HZ = 997

#: Hard ceiling on recorded samples (a runaway query at 997 Hz takes
#: ~3.5 minutes to hit it); further ticks count ``dropped``.
DEFAULT_MAX_SAMPLES = 200_000

#: Deepest stack recorded per sample.
MAX_STACK_DEPTH = 128

#: Root frame used when a sample lands outside any open span.
NO_SPAN = "(no-span)"

# -- process-global switch-interval tuning ----------------------------------
#
# ``sys.setswitchinterval`` is process-wide, so concurrent profilers
# (several served queries profiled at once) must not save/restore it
# independently — the last one to stop would reinstate whatever value
# an *earlier* profiler had temporarily installed.  Mirror the
# tracemalloc refcount in ``repro.obs.memory``: the first profiler to
# need a shorter interval saves the original and installs the minimum
# requested; later profilers only ratchet it downward; the last one
# out restores the original.

_SWITCH_LOCK = named_lock("obs.profiler.switch")
_SWITCH_USERS = 0
_SWITCH_SAVED = None


def _acquire_switch_interval(wanted):
    global _SWITCH_USERS, _SWITCH_SAVED
    with _SWITCH_LOCK:
        _SWITCH_USERS += 1
        current = sys.getswitchinterval()
        if _SWITCH_USERS == 1:
            _SWITCH_SAVED = current
        if wanted < current:
            sys.setswitchinterval(wanted)


def _release_switch_interval():
    global _SWITCH_USERS, _SWITCH_SAVED
    with _SWITCH_LOCK:
        _SWITCH_USERS -= 1
        if _SWITCH_USERS == 0 and _SWITCH_SAVED is not None:
            sys.setswitchinterval(_SWITCH_SAVED)
            _SWITCH_SAVED = None


class ProfileSpec:
    """Sampling parameters, coercible from the ``profile=`` argument."""

    __slots__ = ("hz", "max_samples")

    def __init__(self, hz=DEFAULT_HZ, max_samples=DEFAULT_MAX_SAMPLES):
        if hz <= 0:
            raise ValueError(f"sampling rate must be positive, got {hz!r}")
        self.hz = hz
        self.max_samples = max_samples

    @classmethod
    def coerce(cls, value):
        """``True`` / an hz number / a spec -> :class:`ProfileSpec`.

        ``None`` and ``False`` coerce to ``None`` (profiling off).
        """
        if value is None or value is False:
            return None
        if value is True:
            return cls()
        if isinstance(value, (int, float)):
            return cls(hz=value)
        if isinstance(value, cls):
            return value
        raise TypeError(
            f"profile must be bool, a sampling rate, or ProfileSpec; "
            f"got {type(value).__name__}"
        )

    def __repr__(self):
        return f"ProfileSpec(hz={self.hz})"


def _frame_label(filename, function):
    """``file.py:function`` with characters the collapsed format reserves
    (semicolons, spaces) squashed out."""
    base = os.path.basename(filename) or filename
    return f"{base}:{function}".replace(";", ",").replace(" ", "_")


class SamplingProfiler:
    """Samples one thread's Python stack from a background thread.

    ``trace`` (optional) is the query's :class:`~repro.obs.spans.Trace`;
    at each tick the profiler reads the innermost open span's name and
    stores it with the sample, attributing wall time to pipeline
    stages.  ``thread_ident`` defaults to the thread that calls
    :meth:`start`.

    Samples are ``(span_path, frames)`` tuples: ``span_path`` is the
    root-first tuple of open span names at the tick (``("ask",
    "evaluate")``), empty when no span was open, and ``frames`` is a
    root-first tuple of ``(filename, function, lineno)``.  Keeping the
    whole path means the flamegraph's first levels mirror the span
    tree, and :meth:`span_sample_counts` can attribute by *pipeline
    stage* (the span directly under the root) even while inner code
    has its own finer-grained spans open.
    """

    def __init__(self, hz=DEFAULT_HZ, trace=None, thread_ident=None,
                 max_samples=DEFAULT_MAX_SAMPLES):
        if hz <= 0:
            raise ValueError(f"sampling rate must be positive, got {hz!r}")
        self.hz = hz
        self.interval = 1.0 / hz
        self.trace = trace
        self.thread_ident = thread_ident
        self.max_samples = max_samples
        self.samples = []
        self.dropped = 0
        self.errors = 0
        self.started_at = None
        self.stopped_at = None
        self._stop_event = threading.Event()
        self._thread = None
        self._saved_switch_interval = None

    @classmethod
    def from_spec(cls, spec, trace=None):
        return cls(hz=spec.hz, trace=trace, max_samples=spec.max_samples)

    # -- lifecycle ---------------------------------------------------------

    def start(self):
        """Start sampling the calling thread (or ``thread_ident``)."""
        if self._thread is not None:
            raise RuntimeError("profiler is already running")
        if self.thread_ident is None:
            self.thread_ident = threading.get_ident()
        self._stop_event.clear()
        # A CPU-bound target only yields the GIL every
        # ``sys.getswitchinterval()`` seconds (5 ms by default), which
        # caps the *effective* sampling rate at ~200 Hz no matter what
        # ``hz`` asks for.  Drop the switch interval below the sampling
        # period while the profiler runs; the adjustment is refcounted
        # process-wide (see ``_acquire_switch_interval``) so concurrent
        # profilers restore the pre-profiling value exactly once.
        _acquire_switch_interval(self.interval / 2.0)
        self._saved_switch_interval = True
        self.started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self):
        """Stop the sampler thread and join it (idempotent)."""
        thread = self._thread
        if thread is None:
            return self
        self._stop_event.set()
        thread.join(timeout=5.0)
        self._thread = None
        self.stopped_at = time.perf_counter()
        if self._saved_switch_interval is not None:
            _release_switch_interval()
            self._saved_switch_interval = None
        return self

    @property
    def running(self):
        thread = self._thread
        return thread is not None and thread.is_alive()

    @property
    def duration_seconds(self):
        if self.started_at is None:
            return 0.0
        end = self.stopped_at
        if end is None:
            end = time.perf_counter()
        return end - self.started_at

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback):
        self.stop()
        return False

    # -- the sampling loop -------------------------------------------------

    def _run(self):
        wait = self._stop_event.wait
        while not wait(self.interval):
            try:
                self._sample_once()
            except Exception:
                # A thread that exited mid-walk, an interpreter that is
                # shutting down: never let one bad tick kill the loop.
                self.errors += 1

    def _sample_once(self):
        frame = sys._current_frames().get(self.thread_ident)
        if frame is None:
            return
        if len(self.samples) >= self.max_samples:
            self.dropped += 1
            return
        frames = []
        depth = 0
        while frame is not None and depth < MAX_STACK_DEPTH:
            code = frame.f_code
            frames.append((code.co_filename, code.co_name, frame.f_lineno))
            frame = frame.f_back
            depth += 1
        frames.reverse()
        self.samples.append((self._current_span_path(), tuple(frames)))

    def _current_span_path(self):
        trace = self.trace
        if trace is None:
            return ()
        # The profiled thread pushes/pops concurrently; a torn read at
        # worst misattributes this one sample.
        try:
            return tuple(span.name for span in trace._stack)
        except Exception:
            return ()

    # -- aggregation -------------------------------------------------------

    def span_sample_counts(self):
        """``{stage_span_name: samples}`` with ``NO_SPAN`` unattributed.

        Attribution is by pipeline stage: the span one level under the
        trace root (``parse``, ``evaluate``, ...), or the root itself
        while no stage span is open.
        """
        counts = {}
        for span_path, _ in self.samples:
            key = stage_of(span_path)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def collapsed(self):
        """``{collapsed_stack: count}`` with the span as the root frame."""
        return collapse_samples(self.samples)

    def collapsed_text(self):
        """The full collapsed-stack document (``flamegraph.pl`` input)."""
        return collapsed_text(self.samples)

    def speedscope(self, name="repro"):
        """A speedscope JSON document (``type: sampled``) as a dict."""
        return speedscope_document(
            self.samples, self.interval, name=name
        )

    def to_dict(self):
        """Summary for audit/CI artifacts (no per-sample data)."""
        return {
            "hz": self.hz,
            "samples": len(self.samples),
            "dropped": self.dropped,
            "errors": self.errors,
            "duration_seconds": self.duration_seconds,
            "span_samples": self.span_sample_counts(),
        }

    def __repr__(self):
        return (
            f"SamplingProfiler(hz={self.hz}, {len(self.samples)} samples, "
            f"{'running' if self.running else 'stopped'})"
        )


# -- sample aggregation (module level so merged runs can reuse it) ----------


def stage_of(span_path):
    """The pipeline-stage name a span path attributes to.

    The stage is the span directly under the per-query root (``ask``);
    a one-element path is the root itself, and an empty path means the
    sample landed outside any span (:data:`NO_SPAN`).
    """
    if not span_path:
        return NO_SPAN
    if len(span_path) == 1:
        return span_path[0]
    return span_path[1]


def merge_profiles(profilers):
    """All samples of several profilers, in recording order.

    The ``profile`` CLI subcommand re-asks a query N times to densify
    the sample set; each ``ask`` gets its own profiler, and the merged
    samples render as one flamegraph.
    """
    samples = []
    for profiler in profilers:
        if profiler is not None:
            samples.extend(profiler.samples)
    return samples


def _span_root_frames(span_path):
    if not span_path:
        return [f"span:{NO_SPAN}"]
    return [f"span:{name}" for name in span_path]


def collapse_samples(samples):
    """Aggregate samples into ``{semicolon-joined-stack: count}``.

    The open-span path becomes the root frames
    (``span:ask;span:evaluate;...``), so the flamegraph's first levels
    *are* the pipeline-stage breakdown.
    """
    counts = {}
    for span_path, frames in samples:
        stack = ";".join(
            _span_root_frames(span_path)
            + [_frame_label(f, fn) for f, fn, _ in frames]
        )
        counts[stack] = counts.get(stack, 0) + 1
    return counts


def collapsed_text(samples):
    """Collapsed stacks as text, one ``stack count`` line each."""
    counts = collapse_samples(samples)
    return "".join(
        f"{stack} {count}\n" for stack, count in sorted(counts.items())
    )


def speedscope_document(samples, interval_seconds, name="repro"):
    """Build a speedscope ``sampled`` profile document.

    Every sample weighs one sampling interval; the span-attribution
    root frame is included, so speedscope's left-heavy view groups by
    pipeline stage exactly like the collapsed output.
    """
    frame_index = {}
    frame_list = []

    def intern(key, entry):
        index = frame_index.get(key)
        if index is None:
            index = frame_index[key] = len(frame_list)
            frame_list.append(entry)
        return index

    sample_rows = []
    for span_path, frames in samples:
        row = [
            intern(("span", label), {"name": label})
            for label in _span_root_frames(span_path)
        ]
        for filename, function, lineno in frames:
            key = (filename, function, lineno)
            row.append(
                intern(
                    key,
                    {
                        "name": f"{os.path.basename(filename)}:{function}",
                        "file": filename,
                        "line": lineno,
                    },
                )
            )
        sample_rows.append(row)
    total = interval_seconds * len(sample_rows)
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "shared": {"frames": frame_list},
        "profiles": [
            {
                "type": "sampled",
                "name": name,
                "unit": "seconds",
                "startValue": 0,
                "endValue": total,
                "samples": sample_rows,
                "weights": [interval_seconds] * len(sample_rows),
            }
        ],
        "exporter": "repro.obs.profiler",
    }
