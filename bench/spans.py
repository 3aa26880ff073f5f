"""In-memory spans for the benchmark's traced runs.

Spans are recorded from the benchmark's own files only: around the
public calls it makes, and around engine entry points it wraps from
outside (:data:`ENTRY_POINTS`).  Each span is ``[name, start, end,
parent, request, thread, attrs]`` with ``perf_counter`` times; all of
them stay in memory until :meth:`Tracer.write_chrome` writes Chrome
trace-event JSON, which opens in Perfetto (https://ui.perfetto.dev).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
from time import perf_counter

NAME, START, END, PARENT, REQUEST, THREAD, ATTRS = range(7)


def _mqf_counts(args, result):
    return {"rows_in": sum(len(candidates) for candidates in args[0]),
            "tuples_out": len(result)}


#: Engine entry points wrapped inside evaluate: (span name, module,
#: attribute path, function of (args, result) giving span attributes).
#: Functions are wrapped where their caller looks them up: the evaluator
#: imports ``build_plan`` and ``enumerate_tuples`` from
#: ``repro.xquery.plan`` by name, and the planner imports ``mqf_join``
#: from ``repro.xquery.mqf`` by name.
ENTRY_POINTS = (
    ("xquery.plan", "repro.xquery.evaluator", "build_plan", None),
    ("xquery.enumerate", "repro.xquery.evaluator", "enumerate_tuples", None),
    ("xquery.mqf_join", "repro.xquery.plan", "mqf_join", _mqf_counts),
    ("database.tag_lookup", "repro.database.store",
     "Database.nodes_with_tag", None),
    ("database.value_lookup", "repro.database.store",
     "Database.nodes_with_value", None),
)


class Tracer:
    """Spans of one traced run."""

    def __init__(self):
        self.spans = []
        self.missing = set()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name, request=None):
        """Open a span under the current one; returns its index."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = self.spans[parent][REQUEST]
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, perf_counter(), None, parent, request,
                               threading.get_ident(), None])
        stack.append(index)
        return index

    def end(self, index):
        self.spans[index][END] = perf_counter()
        self._stack().pop()

    def add(self, name, start, end, parent=None, request=None):
        """Record a finished span with explicit times; returns its index."""
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, start, end, parent, request,
                               threading.get_ident(), None])
        return index

    # -- wrapping engine entry points -------------------------------------

    def install(self):
        """Wrap every :data:`ENTRY_POINTS` function found; warn on the rest."""
        for name, module_name, path, attributes in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *owners, attribute = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            original = getattr(owner, attribute, None)
            if original is None:
                self.missing.add(name)
                print(f"warning: {module_name}.{path} not found; "
                      f"{name} metrics read null", file=sys.stderr)
                continue
            setattr(owner, attribute,
                    self._wrap(name, original, attributes))
            self._patched.append((owner, attribute, original))

    def uninstall(self):
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    def _wrap(self, name, function, attributes):
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.end(index)
            if attributes is not None:
                tracer.spans[index][ATTRS] = attributes(args, result)
            return result

        return traced

    # -- reading the spans back -------------------------------------------

    def roots(self):
        """For every span, the index of the root span of its tree."""
        roots = []
        for index, span in enumerate(self.spans):
            parent = span[PARENT]
            roots.append(index if parent is None else roots[parent])
        return roots

    def self_times(self):
        """For every span, its duration minus the time its children cover."""
        times = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] is not None:
                times[span[PARENT]] -= span[END] - span[START]
        return times

    def write_chrome(self, path, max_requests=2000):
        """Write Chrome trace-event JSON for the first ``max_requests``."""
        if not self.spans:
            return
        origin = min(span[START] for span in self.spans)
        threads = {}
        events = []
        for name, start, end, _, request, thread, attrs in self.spans:
            if request is not None and request >= max_requests:
                continue
            tid = threads.setdefault(thread, len(threads) + 1)
            events.append({
                "name": name, "ph": "X", "pid": 1, "tid": tid,
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": dict(attrs or {}, request=request),
            })
        for thread, tid in threads.items():
            events.append({"name": "thread_name", "ph": "M", "pid": 1,
                           "tid": tid, "args": {"name": f"client-{tid}"}})
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)
