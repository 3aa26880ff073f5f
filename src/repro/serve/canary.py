"""The serving correctness canary: golden queries on a timer.

A :class:`CanaryRunner` rides inside ``repro serve`` and periodically
re-executes the nine XMP study tasks (their canonical phrasings, see
:func:`repro.evaluation.tasks.reference_sentences`) **in-process**
against the served pipeline, comparing each answer's canonical digest
(:mod:`repro.obs.answers`) against a golden fixture.  Latency told us
the service was fast; the canary tells us it is still *right* — a bad
deploy, a corrupted index, or a translator regression flips
``repro_canary_pass`` to 0 within one sweep even when every probe
still returns HTTP 200.

Isolation is structural, not configured: the canary calls
``NaLIX.ask()`` directly, so it never passes through admission (no
tenant rate-limit tokens burned), never reaches
``SLOEngine.record_request`` (no error-budget burn), and never lands
in the serving latency windows or the access log.  Production
surfaces cannot be moved by synthetic traffic.  The reserved
``_canary`` tenant is published via :func:`fault_scope` only so chaos
experiments can target (or spare) the canary with
``--inject-fault 'STAGE:tenant=_canary'``.

Golden digests come from a committed fixture
(:mod:`repro.evaluation.goldens`) when the dataset matches one; on an
unknown dataset the first sweep self-baselines, which still catches
*drift over the process lifetime* (the golden source is visible in
``/statusz`` either way).  Drift — a digest mismatch or any non-``ok``
status — is edge-triggered like the SLO fast-burn alert: the
``on_drift`` hook fires once on the pass→fail transition (the server
wires it to a flight-recorder dump), re-arms on recovery, and the
failing results are parked in the flight recorder so the dump carries
the evidence.

Exports: ``repro_canary_pass`` (1/0), ``repro_canary_drift`` (number
of drifting tasks), ``repro_canary_sweeps_total``, and per-task
``repro_canary_task_ok`` / ``repro_canary_task_seconds`` gauges.
"""

from __future__ import annotations

import threading
import time

from repro.obs.metrics import METRICS
from repro.obs.tracecontext import new_trace_id
from repro.resilience.faults import fault_scope
from repro.analysis.racecheck import named_lock

#: The reserved tenant canary probes run under (never a real client's).
CANARY_TENANT = "_canary"

#: Default seconds between sweeps.
DEFAULT_CANARY_INTERVAL = 30.0

_PASS = METRICS.gauge("canary.pass")
_DRIFT = METRICS.gauge("canary.drift")
_SWEEPS = METRICS.counter("canary.sweeps")


def _default_tasks():
    # Lazy: the repro.evaluation package imports the whole study
    # harness, which a server running without a canary never needs.
    from repro.evaluation.tasks import reference_sentences

    return reference_sentences()


class CanaryRunner:
    """Periodic in-process golden-query sweeps over one pipeline.

    ``goldens`` is an optional ``{task_id: digest}`` dict of committed
    fixtures; tasks without one self-baseline on their first sweep.
    ``on_drift(failing_task_ids)`` fires once per pass→fail transition.
    ``recorder`` (a :class:`~repro.obs.recorder.FlightRecorder`)
    receives the failing traces so the auto-dump holds evidence.
    """

    def __init__(self, nalix, interval=DEFAULT_CANARY_INTERVAL, tasks=None,
                 goldens=None, tenant=CANARY_TENANT, timeout=10.0,
                 on_drift=None, audit=None, recorder=None,
                 clock=time.perf_counter):
        self.nalix = nalix
        self.interval = interval
        self.tasks = list(tasks) if tasks is not None else _default_tasks()
        self.goldens = dict(goldens or {})
        self._committed = frozenset(self.goldens)
        self.tenant = tenant
        self.timeout = timeout
        self.on_drift = on_drift
        self.audit = audit
        self.recorder = recorder
        self._clock = clock
        self._lock = named_lock("serve.canary")
        self._stop = threading.Event()
        self._thread = None
        self._alerting = False
        self._sweeps = 0
        self._last_sweep_seconds = None
        # task_id -> latest probe outcome (see _probe).
        self._state = {}

    # -- one sweep -----------------------------------------------------------

    def run_once(self):
        """Execute every canary task once; returns drifting task ids.

        Also the unit-test entry point: two calls model "within two
        canary periods" without a live timer.
        """
        sweep_started = self._clock()
        failing = []
        evidence = []
        for task_id, sentence in self.tasks:
            outcome = self._probe(task_id, sentence)
            if not outcome["ok"]:
                failing.append(task_id)
                evidence.append(outcome)
        with self._lock:
            self._sweeps += 1
            self._last_sweep_seconds = self._clock() - sweep_started
            was_alerting = self._alerting
            self._alerting = bool(failing)
        _SWEEPS.inc()
        _PASS.set(0.0 if failing else 1.0)
        _DRIFT.set(float(len(failing)))
        if failing and not was_alerting:
            self._fire_drift(failing, evidence)
        elif not failing and was_alerting:
            self._record_event("canary-recovered")
        return failing

    def _probe(self, task_id, sentence):
        """Run one golden sentence and compare its digest."""
        started = self._clock()
        with fault_scope(self.tenant):
            result = self.nalix.ask(sentence, timeout=self.timeout)
        seconds = self._clock() - started
        digest = getattr(result, "answer_digest", None)
        with self._lock:
            golden = self.goldens.get(task_id)
            if golden is None and digest is not None and result.status == "ok":
                # Self-baseline: the first healthy answer becomes golden.
                self.goldens[task_id] = digest
                golden = digest
            source = (
                "committed" if task_id in self._committed
                else "computed" if golden is not None
                else None
            )
        ok = (result.status == "ok" and digest is not None
              and golden is not None and digest == golden)
        outcome = {
            "task": task_id,
            "sentence": sentence,
            "ok": ok,
            "status": result.status,
            "error_class": result.error_class,
            "answer_digest": digest,
            "golden_digest": golden,
            "golden_source": source,
            "seconds": seconds,
            "result": result,
        }
        with self._lock:
            self._state[task_id] = outcome
        return outcome

    # -- the alert edge --------------------------------------------------------

    def _fire_drift(self, failing, evidence):
        if self.recorder is not None:
            for outcome in evidence:
                result = outcome["result"]
                self.recorder.record(
                    new_trace_id(), trace=result.trace, reason="canary-drift",
                    tenant=self.tenant, endpoint="canary",
                    sentence=outcome["sentence"], status=outcome["status"],
                    error_class=outcome["error_class"],
                    answer_digest=outcome["answer_digest"],
                    seconds=outcome["seconds"],
                )
        self._record_event(
            "canary-drift", tasks=list(failing),
            details=[
                {
                    "task": outcome["task"],
                    "status": outcome["status"],
                    "answer_digest": outcome["answer_digest"],
                    "golden_digest": outcome["golden_digest"],
                }
                for outcome in evidence
            ],
        )
        if self.on_drift is not None:
            try:
                self.on_drift(list(failing))
            except Exception:
                METRICS.inc("canary.alert_errors")

    def _record_event(self, event, **fields):
        if self.audit is not None:
            self.audit.record_event(event, tenant=self.tenant, **fields)

    # -- lifecycle -------------------------------------------------------------

    def start(self):
        """Start the sweep thread (first sweep runs immediately)."""
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-canary", daemon=True
        )
        self._thread.start()

    def _loop(self):
        while not self._stop.is_set():
            try:
                self.run_once()
            except Exception:
                # A canary crash must never take down serving.
                METRICS.inc("canary.sweep_errors")
            if self._stop.wait(self.interval):
                return

    def stop(self):
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._thread = None

    # -- the ops surface -------------------------------------------------------

    def snapshot(self):
        """The ``/statusz`` fragment (also the ``repro top`` row)."""
        with self._lock:
            tasks = {
                task_id: {
                    key: value
                    for key, value in outcome.items()
                    if key not in ("result", "sentence")
                }
                for task_id, outcome in sorted(self._state.items())
            }
            failing = sorted(
                task_id for task_id, outcome in self._state.items()
                if not outcome["ok"]
            )
            return {
                "tenant": self.tenant,
                "interval_seconds": self.interval,
                "task_count": len(self.tasks),
                "sweeps": self._sweeps,
                "pass": bool(self._sweeps) and not failing,
                "alerting": self._alerting,
                "drifting": failing,
                "last_sweep_seconds": self._last_sweep_seconds,
                "tasks": tasks,
            }

    def prometheus_lines(self):
        """Canary exposition: overall + per-task labeled gauges."""
        with self._lock:
            state = sorted(self._state.items())
        lines = [
            "# HELP repro_canary_task_ok 1 when the task's latest canary "
            "answer matched its golden digest.",
            "# TYPE repro_canary_task_ok gauge",
        ]
        for task_id, outcome in state:
            lines.append(
                f'repro_canary_task_ok{{task="{task_id}"}} '
                f"{1 if outcome['ok'] else 0}"
            )
        lines += [
            "# HELP repro_canary_task_seconds Latest canary probe latency "
            "per task.",
            "# TYPE repro_canary_task_seconds gauge",
        ]
        for task_id, outcome in state:
            lines.append(
                f'repro_canary_task_seconds{{task="{task_id}"}} '
                f"{outcome['seconds']:.6f}"
            )
        return lines

    def __repr__(self):
        with self._lock:
            return (
                f"CanaryRunner({len(self.tasks)} tasks, "
                f"every {self.interval}s, sweeps={self._sweeps})"
            )
