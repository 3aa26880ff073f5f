"""Lightweight hierarchical tracing.

A :class:`Trace` is a per-query tree of :class:`Span` objects.  Each
span records wall time (``time.perf_counter``), a status (``ok`` /
``error``), and free-form attributes::

    trace = Trace()
    with trace.span("translate") as s:
        s.set("variables", 3)
        ...

Spans opened while another span is active nest under it, so the pipeline
stages of ``NaLIX.ask`` form a tree rooted at the ``ask`` span.  The
overhead per span is two ``perf_counter`` calls and one small object —
cheap enough to leave on for every query; the trace *is* the timing
mechanism behind ``QueryResult.parse_seconds`` and friends.

Code that is far from the query entry point (the evaluator, the
planner) can attach spans to whatever trace is active in the current
context via the module-level :func:`span` helper, which degrades to a
no-op when no trace is active — instrumented internals pay almost
nothing when called outside ``ask``.  These engine spans are the plan
operators (flwor, scan, mqf-join, let, filter, order-by, return, with
``detail``/``rows_in``/``rows_out`` attributes).  A trace keeps at most
``max_engine_spans`` of them and is marked ``truncated`` past that;
stage spans opened with :meth:`Trace.span` never count against the cap.
"""

from __future__ import annotations

import time
from contextvars import ContextVar


class Span:
    """One timed operation in a trace tree.

    A span is its own context manager (``with trace.span(...) as s:``);
    on exit it stops the clock, marks ``error`` when the block raised,
    and pops itself from the owning trace's open-span stack.
    """

    OK = "ok"
    ERROR = "error"

    __slots__ = ("name", "status", "attributes", "children",
                 "started_at", "ended_at", "_stack")

    def __init__(self, name, attributes=None):
        self.name = name
        self.status = Span.OK
        self.attributes = attributes if attributes is not None else {}
        self.children = []
        self._stack = None
        self.started_at = time.perf_counter()
        self.ended_at = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.finish(Span.ERROR if exc_type is not None else None)
        stack = self._stack
        if stack is not None:
            # An exception may have skipped the close of spans opened
            # inside this block: finish those descendants (innermost
            # first) so failed traces never contain open spans, then
            # pop this span itself.
            if self in stack:
                while stack[-1] is not self:
                    stack.pop().finish()
                stack.pop()
            self._stack = None
        return False

    @property
    def duration_seconds(self):
        """Wall time; reads the clock while the span is still open."""
        end = self.ended_at
        if end is None:
            end = time.perf_counter()
        return end - self.started_at

    def set(self, key, value):
        """Attach an attribute (shown by ``render`` and ``to_dict``)."""
        self.attributes[key] = value

    def finish(self, status=None):
        """Stop the clock (idempotent); optionally set the status."""
        if self.ended_at is None:
            self.ended_at = time.perf_counter()
        if status is not None:
            self.status = status

    def set_duration(self, seconds):
        """Report ``seconds`` (time accumulated across a loop the span
        did not enclose) instead of the open-to-close wall time."""
        self.ended_at = self.started_at + seconds

    # -- introspection -----------------------------------------------------

    def iter_spans(self):
        """This span and all descendants, preorder."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def find(self, name):
        """First span named ``name`` in this subtree, or None."""
        for node in self.iter_spans():
            if node.name == name:
                return node
        return None

    def to_dict(self):
        entry = {
            "name": self.name,
            "status": self.status,
            "seconds": self.duration_seconds,
        }
        if self.attributes:
            entry["attributes"] = dict(self.attributes)
        if self.children:
            entry["children"] = [child.to_dict() for child in self.children]
        return entry

    def render(self, prefix="", last=True, top=True):
        """ASCII tree: name, duration in ms, status, attributes."""
        connector = "" if top else ("└─ " if last else "├─ ")
        attrs = ""
        if self.attributes:
            attrs = "  " + " ".join(
                f"{key}={value}" for key, value in self.attributes.items()
            )
        line = (
            f"{prefix}{connector}{self.name}  "
            f"{self.duration_seconds * 1000:.2f} ms  [{self.status}]{attrs}"
        )
        lines = [line]
        child_prefix = prefix if top else prefix + ("   " if last else "│  ")
        for index, child in enumerate(self.children):
            lines.append(
                child.render(
                    prefix=child_prefix,
                    last=index == len(self.children) - 1,
                    top=False,
                )
            )
        return "\n".join(lines)

    def __repr__(self):
        return (
            f"Span({self.name!r}, {self.status}, "
            f"{self.duration_seconds * 1000:.2f} ms, "
            f"{len(self.children)} children)"
        )


class Trace:
    """A per-query tree of spans with an open-span stack."""

    #: Default cap on engine spans (those opened through :func:`span`).
    MAX_ENGINE_SPANS = 512

    __slots__ = ("roots", "_stack", "max_engine_spans", "_engine_spans",
                 "truncated")

    def __init__(self):
        self.roots = []
        self._stack = []
        self.max_engine_spans = Trace.MAX_ENGINE_SPANS
        self._engine_spans = 0
        self.truncated = False

    def span(self, name, **attributes):
        """Open a span (a context manager); nests under the innermost
        open span.

        The span's status becomes ``error`` when the block raises (the
        exception propagates); otherwise it stays ``ok`` unless the
        block set it explicitly.
        """
        current = Span(name, attributes)
        stack = self._stack
        if stack:
            stack[-1].children.append(current)
        else:
            self.roots.append(current)
        stack.append(current)
        current._stack = stack
        return current

    # -- aggregation -------------------------------------------------------

    def iter_spans(self):
        for root in self.roots:
            yield from root.iter_spans()

    def find(self, name):
        for root in self.roots:
            found = root.find(name)
            if found is not None:
                return found
        return None

    def finish_open_spans(self):
        """Close any spans still on the open stack (innermost first).

        Safety net for exception paths that bypass a span's ``with``
        block (a helper that opened a span and raised before closing
        it): guarantees every span in a finished trace has an end time,
        so ``--trace`` output and audited stage timings are complete
        even when evaluation raised.
        """
        while self._stack:
            self._stack.pop().finish()

    def stage_seconds(self, name):
        """Total duration of every span named ``name`` in the trace."""
        return sum(
            node.duration_seconds
            for node in self.iter_spans()
            if node.name == name
        )

    def total_seconds(self):
        return sum(root.duration_seconds for root in self.roots)

    def to_dict(self):
        data = {"spans": [root.to_dict() for root in self.roots]}
        if self.truncated:
            data["truncated"] = True
        return data

    def render(self):
        lines = [root.render() for root in self.roots]
        if self.truncated:
            lines.append(
                f"... trace truncated at {self.max_engine_spans} engine spans"
            )
        return "\n".join(lines)

    def __repr__(self):
        return f"Trace({sum(1 for _ in self.iter_spans())} spans)"


class _NoopSpan:
    """Stand-in yielded by :func:`span` when no trace is active."""

    __slots__ = ()
    name = "noop"
    status = Span.OK
    attributes = {}
    children = ()
    duration_seconds = 0.0

    def set(self, key, value):
        pass

    def finish(self, status=None):
        pass

    def set_duration(self, seconds):
        pass

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        return False


_NOOP_SPAN = _NoopSpan()
_CURRENT_TRACE: ContextVar[Trace | None] = ContextVar(
    "repro_obs_trace", default=None
)


def current_trace():
    """The trace active in this context, or None."""
    return _CURRENT_TRACE.get()


class _TraceActivation:
    __slots__ = ("_trace", "_tokens")

    def __init__(self, trace):
        self._trace = trace
        self._tokens = []  # LIFO: safe under re-entrant use

    def __enter__(self):
        self._tokens.append(_CURRENT_TRACE.set(self._trace))
        return self._trace

    def __exit__(self, exc_type, exc_value, traceback):
        _CURRENT_TRACE.reset(self._tokens.pop())
        return False


def activate_trace(trace):
    """Make ``trace`` the context's active trace for the ``with`` block."""
    return _TraceActivation(trace)


def span(name, **attributes):
    """Open an engine span on the context's active trace.

    A no-op without an active trace, and past the trace's engine-span
    cap (which marks the trace ``truncated``).
    """
    trace = _CURRENT_TRACE.get()
    if trace is None:
        return _NOOP_SPAN
    if trace._engine_spans >= trace.max_engine_spans:
        trace.truncated = True
        return _NOOP_SPAN
    trace._engine_spans += 1
    return trace.span(name, **attributes)
