"""The stuck-query watchdog: find wedged requests and cut them loose.

Budgets are *cooperative* — the engine checks them at loop boundaries —
so a request can still wedge inside one long uncooperative step (a
pathological regex, an injected latency fault, a kernel-slow I/O).  The
watchdog is the backstop:

* every in-flight ``/query`` request registers in the
  :class:`InflightRegistry` (request id, tenant, worker thread id, and
  its live :class:`~repro.resilience.BudgetMeter`);
* a daemon thread scans the registry every ``interval`` seconds;
* past the **soft deadline** a request is stamped *stuck*: the
  ``serve.watchdog.stuck`` counter increments and a sampled stack of
  the offending worker thread (via ``sys._current_frames()``) lands in
  the audit log as a ``watchdog-stuck`` event — the flight recorder
  for "what was it doing?";
* past the **hard deadline** the watchdog force-expires the request's
  meter (:meth:`~repro.resilience.BudgetMeter.expire`): the engine's
  next cooperative check raises ``BudgetExceeded`` and the wedged
  evaluation unwinds into a *classified* ``exhausted`` response (HTTP
  504) with a complete trace and audit entry — never a hung socket,
  never an unclassified 500;
* a request that was stamped stuck but finished on its own increments
  ``serve.watchdog.recovered`` — the number chaos tests assert on.

Deadlines derive from each request's own budget deadline
(``soft_factor`` / ``hard_factor`` × the deadline) so a client asking
for a long timeout is not murdered early; absolute overrides
(``soft_seconds`` / ``hard_seconds``) exist for servers that want flat
limits.  ``scan_once(now)`` is public and clock-driven, so unit tests
exercise every transition deterministically with zero sleeps.
"""

from __future__ import annotations

import sys
import threading
import time
import traceback

from repro.obs.metrics import METRICS
from repro.analysis.racecheck import named_lock

_STUCK = METRICS.counter("serve.watchdog.stuck")
_EXPIRED = METRICS.counter("serve.watchdog.expired")
_RECOVERED = METRICS.counter("serve.watchdog.recovered")
_SCANS = METRICS.counter("serve.watchdog.scans")
_INFLIGHT_OLDEST = METRICS.gauge("serve.watchdog.oldest_seconds")

#: Default multiples of a request's budget deadline.
DEFAULT_SOFT_FACTOR = 1.5
DEFAULT_HARD_FACTOR = 3.0
#: Fallback deadline basis for requests with no budget deadline.
DEFAULT_DEADLINE_BASIS = 5.0


def sample_thread_stack(thread_id, limit=40):
    """The current stack of ``thread_id`` as a list of frame strings.

    Best-effort: the thread may finish between the frames snapshot and
    the format call, in which case an empty list comes back.
    """
    frame = sys._current_frames().get(thread_id)
    if frame is None:
        return []
    return [
        line.rstrip("\n")
        for line in traceback.format_stack(frame, limit=limit)
    ]


class _Entry:
    """One in-flight request, as the watchdog sees it."""

    __slots__ = ("request_id", "tenant", "sentence", "thread_id", "meter",
                 "started_at", "soft_at", "hard_at", "stuck", "expired")

    def __init__(self, request_id, tenant, sentence, thread_id, meter,
                 started_at, soft_at, hard_at):
        self.request_id = request_id
        self.tenant = tenant
        self.sentence = sentence
        self.thread_id = thread_id
        self.meter = meter
        self.started_at = started_at
        self.soft_at = soft_at
        self.hard_at = hard_at
        self.stuck = False
        self.expired = False


class InflightRegistry:
    """Thread-safe registry of in-flight requests for the watchdog."""

    def __init__(self, soft_factor=DEFAULT_SOFT_FACTOR,
                 hard_factor=DEFAULT_HARD_FACTOR,
                 soft_seconds=None, hard_seconds=None,
                 clock=time.monotonic):
        self.soft_factor = soft_factor
        self.hard_factor = hard_factor
        self.soft_seconds = soft_seconds
        self.hard_seconds = hard_seconds
        self._clock = clock
        self._lock = named_lock("serve.registry")
        self._entries = {}
        self.recovered_total = 0

    def _deadlines(self, deadline_seconds):
        basis = deadline_seconds or DEFAULT_DEADLINE_BASIS
        soft = (self.soft_seconds if self.soft_seconds is not None
                else basis * self.soft_factor)
        hard = (self.hard_seconds if self.hard_seconds is not None
                else basis * self.hard_factor)
        return soft, max(soft, hard)

    def register(self, request_id, tenant, sentence, meter,
                 thread_id=None, deadline_seconds=None):
        """Track one request; returns the entry to pass to :meth:`finish`."""
        now = self._clock()
        if deadline_seconds is None and meter is not None:
            deadline_seconds = meter.budget.deadline_seconds
        soft, hard = self._deadlines(deadline_seconds)
        if meter is not None:
            # Past ``hard`` the watchdog expires the meter anyway; making
            # it the meter's deadline too lets cooperative code (the
            # degradation ladder's deadline_share) plan against it.
            meter.cap_deadline(hard)
        entry = _Entry(
            request_id=request_id,
            tenant=tenant,
            sentence=sentence,
            thread_id=(thread_id if thread_id is not None
                       else threading.get_ident()),
            meter=meter,
            started_at=now,
            soft_at=now + soft,
            hard_at=now + hard,
        )
        with self._lock:
            self._entries[request_id] = entry
        return entry

    def finish(self, entry):
        """Drop a finished request; count it recovered if it was stuck."""
        with self._lock:
            self._entries.pop(entry.request_id, None)
            if entry.stuck and not entry.expired:
                self.recovered_total += 1
                _RECOVERED.inc()

    def entries(self):
        with self._lock:
            return list(self._entries.values())

    def snapshot_entries(self, now=None):
        """The in-flight request table for ``/statusz`` / ``repro top``.

        One dict per live request: id, tenant, a truncated sentence,
        age in seconds, and the stuck/expired stamps — the operator's
        "what is it chewing on right now" view.
        """
        if now is None:
            now = self._clock()
        return [
            {
                "request_id": entry.request_id,
                "tenant": entry.tenant,
                "sentence": (entry.sentence or "")[:80],
                "age_seconds": max(0.0, now - entry.started_at),
                "stuck": entry.stuck,
                "expired": entry.expired,
            }
            for entry in sorted(
                self.entries(), key=lambda entry: entry.started_at
            )
        ]

    def __len__(self):
        with self._lock:
            return len(self._entries)


class Watchdog:
    """Daemon thread scanning the registry for stuck requests."""

    def __init__(self, registry, interval=0.5, audit=None,
                 clock=time.monotonic, stack_limit=40, on_event=None):
        self.registry = registry
        self.interval = interval
        self.audit = audit
        # Event hook: called as on_event(kind, entry) for every
        # stuck/expired transition (the server wires hard expiries to a
        # flight-recorder dump).  Hook errors are counted, not raised.
        self.on_event = on_event
        self._clock = clock
        self.stack_limit = stack_limit
        self.stuck_total = 0
        self.expired_total = 0
        self._stop = threading.Event()
        self._thread = None

    # -- lifecycle -----------------------------------------------------------

    def start(self):
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name="repro-watchdog", daemon=True
        )
        self._thread.start()

    def stop(self):
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def _run(self):
        while not self._stop.wait(self.interval):
            try:
                self.scan_once()
            except Exception:  # the watchdog must never die mid-flight
                METRICS.inc("serve.watchdog.scan_errors")

    # -- the scan (public: tests drive it with a fake clock) ------------------

    def scan_once(self, now=None):
        """One pass over in-flight requests; returns actions taken.

        Each action is ``(kind, entry)`` with kind ``"stuck"`` or
        ``"expired"``.  Safe against requests finishing concurrently —
        acting on an already-finished entry is a harmless no-op (its
        meter is done being read).
        """
        if now is None:
            now = self._clock()
        _SCANS.inc()
        actions = []
        oldest = 0.0
        for entry in self.registry.entries():
            oldest = max(oldest, now - entry.started_at)
            if not entry.stuck and now >= entry.soft_at:
                entry.stuck = True
                self.stuck_total += 1
                _STUCK.inc()
                self._report(entry, now, "watchdog-stuck")
                actions.append(("stuck", entry))
            if (entry.stuck and not entry.expired
                    and now >= entry.hard_at):
                entry.expired = True
                self.expired_total += 1
                _EXPIRED.inc()
                if entry.meter is not None:
                    entry.meter.expire("watchdog")
                self._report(entry, now, "watchdog-expired")
                actions.append(("expired", entry))
        _INFLIGHT_OLDEST.set(oldest)
        if self.on_event is not None:
            for kind, entry in actions:
                try:
                    self.on_event(kind, entry)
                except Exception:
                    METRICS.inc("serve.watchdog.hook_errors")
        return actions

    def _report(self, entry, now, event):
        """One audit event with the offending thread's sampled stack."""
        if self.audit is None:
            return
        try:
            self.audit.record_event(
                event,
                request_id=entry.request_id,
                tenant=entry.tenant,
                sentence=entry.sentence,
                elapsed_seconds=now - entry.started_at,
                thread_id=entry.thread_id,
                stack=sample_thread_stack(
                    entry.thread_id, limit=self.stack_limit
                ),
            )
        except Exception:  # audit I/O failure must not kill the scan
            METRICS.inc("serve.watchdog.report_errors")

    def snapshot(self):
        return {
            "inflight": len(self.registry),
            "stuck_total": self.stuck_total,
            "expired_total": self.expired_total,
            "recovered_total": self.registry.recovered_total,
            "interval": self.interval,
        }

    def __repr__(self):
        return (
            f"Watchdog(inflight={len(self.registry)}, "
            f"stuck={self.stuck_total}, expired={self.expired_total})"
        )
