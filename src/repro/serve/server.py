"""The ``repro serve`` HTTP service.

A stdlib-only (``http.server.ThreadingHTTPServer``) long-lived service
wrapping ``NaLIX.ask()``.  One connection thread per request, with the
actual query concurrency bounded by the
:class:`~repro.serve.admission.AdmissionController` — admission is the
worker-pool limit, the per-query
:class:`~repro.resilience.QueryBudget` bounds each admitted query's
work, and the qlint gate inside ``ask`` guarantees no malformed
translation reaches the evaluator.  The engine itself is read-only by
construction (Schema-Free XQuery here has no update expressions, and
the optional raw ``/xquery`` endpoint re-runs the static analyzer
before evaluating), so the service can never mutate the store.

Endpoints:

``POST /query`` (or ``GET /query?q=...``)
    Body ``{"sentence": ..., "timeout": seconds?, "explain": bool?,
    "limit": int?}``.  Returns the answer JSON; ``explain=1`` embeds
    the full provenance/lineage/plan report.  Tenant comes from the
    ``X-Repro-Tenant`` header.  HTTP status mirrors the result
    taxonomy: 200 ok/degraded, 422 rejected (user feedback), 504
    budget-exhausted, 500 internal, 429/503 turned away by admission.
``POST /xquery``
    Raw Schema-Free XQuery — only when the server was started with
    ``allow_xquery=True``, and only after the query passes the qlint
    gate with zero errors (the read-only guarantee for raw queries).
``GET /metrics``
    Prometheus text exposition: the process metrics registry plus the
    pipeline latency windows plus the server's own per-endpoint and
    per-tenant sliding windows.
``GET /healthz`` / ``GET /readyz``
    Liveness (always 200 while the process serves) and readiness (503
    while draining).
``GET /statusz``
    JSON ops summary: uptime, inflight, admission/tenant counters,
    window quantiles, drain state.

Every finished query lands one structured access-log record in the
server's rotating :class:`~repro.obs.audit.AuditLog` (the standard
audit entry plus tenant / endpoint / request id / HTTP status / remote
address), and the server's request handling observes into its own
:class:`~repro.obs.export.LatencyWindow` so ``/metrics`` exposes live
p50/p95/p99 per endpoint and per tenant.

Graceful shutdown (``drain`` → ``stop``): flip ``/readyz`` to 503 and
refuse new admissions, wait for in-flight queries to finish (bounded —
every query runs under a budget deadline), then stop the listener and
flush/close the audit log.  ``serve_until_signal`` wires SIGTERM and
SIGINT to exactly that sequence for the CLI.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.analysis import analyze_query
from repro.analysis import racecheck
from repro.core.interface import NaLIX
from repro.obs.audit import AuditLog
from repro.obs.explain import explain
from repro.obs.export import LATENCIES, LatencyWindow, prometheus_text
from repro.obs.metrics import METRICS
from repro.obs.recorder import (
    DEFAULT_MAX_BYTES,
    DEFAULT_MIN_DUMP_INTERVAL,
    FlightRecorder,
)
from repro.obs.sampler import DEFAULT_HEAD_RATE, TailSampler
from repro.obs.slo import (
    DEFAULT_FAST_BURN_THRESHOLD,
    DEFAULT_FAST_SECONDS,
    DEFAULT_SLOW_SECONDS,
    SLOEngine,
    SLOSpec,
)
from repro.obs.tracecontext import new_trace_id, parse_traceparent
from repro.resilience.breaker import BreakerBoard
from repro.resilience.budget import QueryBudget, activate_budget
from repro.resilience.faults import FaultPlan, fault_scope
from repro.serve.admission import (
    DEFAULT_MAX_INFLIGHT,
    AdmissionController,
    AdmissionError,
)
from repro.serve.brownout import BrownoutController
from repro.serve.canary import DEFAULT_CANARY_INTERVAL, CanaryRunner
from repro.serve.watchdog import InflightRegistry, Watchdog
from repro.xmlstore.model import Node
from repro.xquery.parser import parse_xquery
from repro.xquery.values import string_value

#: Largest accepted request body.
MAX_BODY_BYTES = 64 * 1024

#: Tenant names are sanitized to this shape (metrics/file hygiene).
_TENANT_RE = re.compile(r"[^a-zA-Z0-9._-]")
_TENANT_MAX_LEN = 64
DEFAULT_TENANT = "anonymous"

_REQUESTS = METRICS.counter("serve.requests")
_QUERY_REQUESTS = METRICS.counter("serve.requests.query")
_RESPONSE_CLASSES = {
    klass: METRICS.counter(f"serve.responses.{klass}")
    for klass in ("2xx", "4xx", "5xx")
}
_DRAIN_SECONDS = METRICS.gauge("serve.drain.seconds")


class ServeConfig:
    """Everything ``repro serve`` can tune, with serving-grade defaults."""

    def __init__(self, host="127.0.0.1", port=8080,
                 max_inflight=DEFAULT_MAX_INFLIGHT,
                 tenant_rate=None, tenant_burst=None, tenant_inflight=None,
                 default_timeout=QueryBudget.DEFAULT_DEADLINE_SECONDS,
                 max_timeout=30.0, result_limit=200,
                 audit_path=None, audit_max_bytes=16 * 1024 * 1024,
                 window=4096, allow_xquery=False, drain_grace=None,
                 fault_plan=None,
                 breaker_window=64, breaker_threshold=0.5,
                 breaker_min_samples=8, breaker_open_seconds=5.0,
                 brownout=True, pressure_high=0.8, pressure_low=0.5,
                 brownout_step=2.0, brownout_cooldown=5.0,
                 watchdog=True, watchdog_interval=0.5,
                 watchdog_soft=None, watchdog_hard=None,
                 slos=None, slo_fast_seconds=DEFAULT_FAST_SECONDS,
                 slo_slow_seconds=DEFAULT_SLOW_SECONDS,
                 slo_fast_burn=DEFAULT_FAST_BURN_THRESHOLD,
                 recorder=True, recorder_max_bytes=DEFAULT_MAX_BYTES,
                 head_sample_rate=DEFAULT_HEAD_RATE,
                 dump_dir=None, dump_signal=None,
                 min_dump_interval=DEFAULT_MIN_DUMP_INTERVAL,
                 canary=False, canary_interval=DEFAULT_CANARY_INTERVAL,
                 canary_goldens=None, canary_tasks=None):
        self.host = host
        self.port = port
        self.max_inflight = max_inflight
        self.tenant_rate = tenant_rate
        self.tenant_burst = tenant_burst
        self.tenant_inflight = tenant_inflight
        self.default_timeout = default_timeout
        self.max_timeout = max_timeout
        self.result_limit = result_limit
        self.audit_path = audit_path
        self.audit_max_bytes = audit_max_bytes
        self.window = window
        self.allow_xquery = allow_xquery
        # Chaos: a FaultPlan (or --inject-fault string/list) applied to
        # the served pipeline.
        self.fault_plan = fault_plan
        # Circuit breakers over QueryResult.error_class.
        self.breaker_window = breaker_window
        self.breaker_threshold = breaker_threshold
        self.breaker_min_samples = breaker_min_samples
        self.breaker_open_seconds = breaker_open_seconds
        # Brownout ladder (budget tightening + pre-degradation).
        self.brownout = brownout
        self.pressure_high = pressure_high
        self.pressure_low = pressure_low
        self.brownout_step = brownout_step
        self.brownout_cooldown = brownout_cooldown
        # Stuck-query watchdog; soft/hard are absolute-seconds overrides
        # (default: 1.5x / 3x each request's budget deadline).
        self.watchdog = watchdog
        self.watchdog_interval = watchdog_interval
        self.watchdog_soft = watchdog_soft
        self.watchdog_hard = watchdog_hard
        # SLOs: None = the default serving objectives; an empty tuple
        # disables the engine; otherwise SLOSpec objects or spec
        # strings ("availability:0.99", "latency:0.99@0.5").
        self.slos = slos
        self.slo_fast_seconds = slo_fast_seconds
        self.slo_slow_seconds = slo_slow_seconds
        self.slo_fast_burn = slo_fast_burn
        # Tail sampling + flight recorder (the incident evidence loop).
        self.recorder = recorder
        self.recorder_max_bytes = recorder_max_bytes
        self.head_sample_rate = head_sample_rate
        self.dump_dir = dump_dir
        self.dump_signal = dump_signal
        self.min_dump_interval = min_dump_interval
        # The correctness canary: periodic in-process golden-query
        # sweeps under the reserved "_canary" tenant.  Off by default
        # (tests and benchmarks opt in); the CLI turns it on.
        self.canary = canary
        self.canary_interval = canary_interval
        self.canary_goldens = canary_goldens
        self.canary_tasks = canary_tasks
        # Drain must outlast the longest admissible query: its budget
        # deadline plus slack for serialization and logging.
        self.drain_grace = (
            drain_grace
            if drain_grace is not None
            else (max_timeout or default_timeout or 5.0) + 2.0
        )


class _HTTPError(Exception):
    """Internal: abort the request with a status + JSON error body."""

    def __init__(self, status, code, message, retry_after_seconds=None):
        super().__init__(message)
        self.status = status
        self.code = code
        self.retry_after_seconds = retry_after_seconds


def _clean_tenant(raw):
    if not raw:
        return DEFAULT_TENANT
    cleaned = _TENANT_RE.sub("_", raw.strip())[:_TENANT_MAX_LEN]
    return cleaned or DEFAULT_TENANT


class _ServeHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    # Restarting a drained server on the same port must not wait out
    # TIME_WAIT.
    allow_reuse_address = True
    # The stdlib default backlog of 5 drops SYNs when N>5 clients
    # connect in one burst (urllib opens a fresh connection per
    # request), and a dropped SYN retransmits after ~1s — a phantom
    # 1000ms client-side p99 the server never saw.
    request_queue_size = 128


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the owning :class:`ReproServer`."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"

    # BaseHTTPRequestHandler logs every request to stderr by default;
    # the structured audit log is the access log, so keep stderr quiet.
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    @property
    def repro(self):
        return self.server.repro_server

    def do_GET(self):
        self._dispatch("GET")

    def do_POST(self):
        self._dispatch("POST")

    def _dispatch(self, method):
        _REQUESTS.inc()
        split = urlsplit(self.path)
        route = (method, split.path)
        try:
            if route == ("GET", "/healthz"):
                self._send_text(200, "ok\n")
            elif route == ("GET", "/readyz"):
                if self.repro.draining:
                    self._send_text(503, "draining\n")
                else:
                    self._send_text(200, "ready\n")
            elif route == ("GET", "/metrics"):
                self._send_text(
                    200, self.repro.metrics_text(),
                    content_type="text/plain; version=0.0.4; charset=utf-8",
                )
            elif route == ("GET", "/statusz"):
                self._send_json(200, self.repro.status_snapshot())
            elif route == ("GET", "/debugz/flightrecorder"):
                self._flight_recorder(split.query)
            elif split.path == "/query" and method in ("GET", "POST"):
                _QUERY_REQUESTS.inc()
                payload = (
                    self._read_json_body()
                    if method == "POST"
                    else self._query_params_payload(split.query)
                )
                self._run_query(payload)
            elif route == ("POST", "/xquery"):
                self._run_xquery(self._read_json_body())
            else:
                raise _HTTPError(404, "not-found",
                                 f"no such endpoint: {method} {split.path}")
        except _HTTPError as error:
            self._send_error_json(error)
        except BrokenPipeError:
            pass  # client went away mid-response; nothing to answer
        except Exception as error:  # a handler bug must not kill the thread
            self._send_error_json(
                _HTTPError(500, "internal-error",
                           f"{type(error).__name__}: {error}")
            )

    # -- request parsing ---------------------------------------------------

    def _read_json_body(self):
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise _HTTPError(413, "body-too-large",
                             f"request body over {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise _HTTPError(400, "empty-body",
                             "expected a JSON request body")
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _HTTPError(400, "bad-json",
                             f"request body is not valid JSON: {error}")
        if not isinstance(payload, dict):
            raise _HTTPError(400, "bad-json",
                             "request body must be a JSON object")
        return payload

    def _query_params_payload(self, query_string):
        params = parse_qs(query_string)
        payload = {}
        if "q" in params:
            payload["sentence"] = params["q"][0]
        elif "sentence" in params:
            payload["sentence"] = params["sentence"][0]
        if "timeout" in params:
            payload["timeout"] = params["timeout"][0]
        if "explain" in params:
            payload["explain"] = params["explain"][0] not in ("0", "false", "")
        if "limit" in params:
            payload["limit"] = params["limit"][0]
        return payload

    def _tenant(self):
        return _clean_tenant(self.headers.get("X-Repro-Tenant"))

    def _trace_id(self):
        """Adopt the client's W3C traceparent trace id, or mint one."""
        parsed = parse_traceparent(self.headers.get("traceparent"))
        if parsed is not None:
            return parsed[0]
        return new_trace_id()

    def _flight_recorder(self, query_string):
        """``GET /debugz/flightrecorder``: the on-demand dump surface.

        Default: the full JSON bundle (snapshot + every retained
        record).  ``?format=chrome`` returns a Chrome trace-event
        document, ``?format=jsonl`` the raw JSONL, and ``?dump=1``
        writes a bundle into the server's dump dir (rate-limited like
        every automatic dump) and reports the path.
        """
        recorder = self.repro.recorder
        if recorder is None:
            raise _HTTPError(404, "recorder-disabled",
                             "the flight recorder is disabled on this "
                             "server (started with recorder=False)")
        params = parse_qs(query_string)
        if params.get("dump", ["0"])[0] not in ("0", "false", ""):
            prefix = self.repro.trigger_dump("debugz")
            self._send_json(200, {
                "dumped": prefix is not None,
                "prefix": prefix,
                "snapshot": recorder.snapshot(),
            })
            return
        fmt = params.get("format", ["bundle"])[0]
        if fmt == "chrome":
            self._send_json(200, recorder.dump_chrome())
        elif fmt == "jsonl":
            self._send_text(200, recorder.dump_jsonl(),
                            content_type="application/x-ndjson")
        else:
            self._send_json(200, recorder.dump_bundle())

    # -- the query endpoints -----------------------------------------------

    def _run_query(self, payload):
        sentence = payload.get("sentence")
        if not sentence or not isinstance(sentence, str):
            raise _HTTPError(400, "missing-sentence",
                             'expected {"sentence": "..."} '
                             "(or /query?q=...)")
        tenant = self._tenant()
        server = self.repro
        timeout = server.clamp_timeout(payload.get("timeout"))
        trace_id = self._trace_id()
        started = time.perf_counter()
        try:
            ticket = server.admission.admit(tenant)
        except AdmissionError as error:
            raise _HTTPError(error.http_status, f"admission-{error.reason}",
                             str(error),
                             retry_after_seconds=error.retry_after_seconds)
        # The request id exists before the query runs so the watchdog
        # can name this request in stuck/expired audit events.
        request_id = server.next_request_id()
        probe = False
        entry = None
        try:
            meter, pre_degrade, probe = server.resilience_plan(timeout)
            entry = server.registry.register(
                request_id, tenant, sentence, meter
            )
            with fault_scope(tenant):
                result = server.nalix.ask(
                    sentence, meter=meter, pre_degrade=pre_degrade
                )
        finally:
            if entry is not None:
                server.registry.finish(entry)
            ticket.release()
        server.breakers.record(result.error_class, probe=probe)
        seconds = time.perf_counter() - started
        status, body = server.render_result(
            result, payload, tenant=tenant, seconds=seconds,
            request_id=request_id, trace_id=trace_id,
        )
        server.record_outcome(
            "/query", tenant, result, seconds, http_status=status,
            request_id=request_id, trace_id=trace_id, entry=entry,
        )
        server.access_log(result, tenant=tenant, endpoint="/query",
                          request_id=request_id, trace_id=trace_id,
                          http_status=status,
                          remote=self.client_address[0])
        self._send_json(status, body, extra_headers={
            "X-Repro-Seconds": f"{seconds:.6f}",
            "X-Repro-Request-Id": request_id,
            "X-Repro-Trace-Id": trace_id,
        })

    def _run_xquery(self, payload):
        server = self.repro
        if not server.config.allow_xquery:
            raise _HTTPError(403, "xquery-disabled",
                             "raw XQuery is disabled; start the server "
                             "with --allow-xquery to enable it")
        query_text = payload.get("query")
        if not query_text or not isinstance(query_text, str):
            raise _HTTPError(400, "missing-query",
                             'expected {"query": "..."}')
        tenant = self._tenant()
        started = time.perf_counter()
        try:
            ticket = server.admission.admit(tenant)
        except AdmissionError as error:
            raise _HTTPError(error.http_status, f"admission-{error.reason}",
                             str(error),
                             retry_after_seconds=error.retry_after_seconds)
        try:
            status, body = server.run_raw_xquery(query_text, tenant)
        finally:
            ticket.release()
        seconds = time.perf_counter() - started
        server.observe_request("/xquery", tenant, seconds)
        self._send_json(status, body, extra_headers={
            "X-Repro-Seconds": f"{seconds:.6f}",
        })

    # -- response plumbing -------------------------------------------------

    def _count_response(self, status):
        klass = f"{status // 100}xx"
        counter = _RESPONSE_CLASSES.get(klass)
        if counter is not None:
            counter.inc()

    def _send_bytes(self, status, payload, content_type,
                    extra_headers=None):
        self._count_response(status)
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        for key, value in (extra_headers or {}).items():
            if value is not None:
                self.send_header(key, str(value))
        self.end_headers()
        self.wfile.write(payload)

    def _send_text(self, status, text, content_type="text/plain; charset=utf-8"):
        self._send_bytes(status, text.encode("utf-8"), content_type)

    def _send_json(self, status, document, extra_headers=None):
        self._send_bytes(
            status,
            (json.dumps(document, sort_keys=True) + "\n").encode("utf-8"),
            "application/json",
            extra_headers=extra_headers,
        )

    def _send_error_json(self, error):
        headers = {}
        if error.retry_after_seconds is not None:
            headers["Retry-After"] = str(int(error.retry_after_seconds))
        self._send_json(
            error.status,
            {"error": error.code, "message": str(error)},
            extra_headers=headers,
        )


class ReproServer:
    """The long-lived query service around one :class:`NaLIX` pipeline.

    ``nalix`` may be passed preconstructed (tests inject slow or faulty
    pipelines); otherwise one is built over ``database``.  The server
    owns the audit log (the structured access log), the admission
    controller, and a per-endpoint/per-tenant latency window; the
    process-wide ``METRICS``/``LATENCIES`` keep aggregating exactly as
    they do for CLI queries, so ``/metrics`` is one coherent surface.
    """

    def __init__(self, database=None, config=None, nalix=None):
        self.config = config or ServeConfig()
        if nalix is None:
            if database is None:
                raise ValueError("ReproServer needs a database or a nalix")
            nalix = NaLIX(
                database,
                budget=QueryBudget.default(
                    deadline_seconds=self.config.default_timeout
                ),
            )
        self.nalix = nalix
        if self.config.fault_plan is not None:
            # The chaos harness: inject faults into the served pipeline.
            self.nalix.fault_plan = FaultPlan.coerce(self.config.fault_plan)
        self.audit = None
        if self.config.audit_path:
            self.audit = AuditLog(
                self.config.audit_path, actor="serve",
                max_bytes=self.config.audit_max_bytes,
            )
        self.admission = AdmissionController(
            max_inflight=self.config.max_inflight,
            tenant_rate=self.config.tenant_rate,
            tenant_burst=self.config.tenant_burst,
            tenant_inflight=self.config.tenant_inflight,
        )
        # The incident evidence loop: tail sampler + flight recorder +
        # SLO burn-rate engine.  Built before the breaker/watchdog
        # hooks below so the auto-dump triggers can reference them.
        self.recorder = (
            FlightRecorder(
                max_bytes=self.config.recorder_max_bytes,
                dump_dir=self.config.dump_dir,
                min_dump_interval=self.config.min_dump_interval,
            )
            if self.config.recorder
            else None
        )
        self.sampler = (
            TailSampler(head_rate=self.config.head_sample_rate)
            if self.config.recorder
            else None
        )
        self.slo = (
            SLOEngine(
                specs=self._slo_specs(self.config.slos),
                fast_seconds=self.config.slo_fast_seconds,
                slow_seconds=self.config.slo_slow_seconds,
                fast_burn_threshold=self.config.slo_fast_burn,
                on_fast_burn=lambda spec, snapshot: self.trigger_dump(
                    f"slo-fast-burn-{spec.name}"
                ),
            )
            if self.config.slos is None or self.config.slos
            else None
        )
        self.breakers = BreakerBoard(
            window=self.config.breaker_window,
            failure_threshold=self.config.breaker_threshold,
            min_samples=self.config.breaker_min_samples,
            open_seconds=self.config.breaker_open_seconds,
        )
        self.breakers.set_on_open(
            lambda breaker: self.trigger_dump(f"breaker-open-{breaker.name}")
        )
        self.brownout = (
            BrownoutController(
                pressure_high=self.config.pressure_high,
                pressure_low=self.config.pressure_low,
                step_seconds=self.config.brownout_step,
                cooldown_seconds=self.config.brownout_cooldown,
            )
            if self.config.brownout
            else None
        )
        self.registry = InflightRegistry(
            soft_seconds=self.config.watchdog_soft,
            hard_seconds=self.config.watchdog_hard,
        )
        self.watchdog = (
            Watchdog(
                self.registry, interval=self.config.watchdog_interval,
                audit=self.audit, on_event=self._watchdog_event,
            )
            if self.config.watchdog
            else None
        )
        self.canary = (
            CanaryRunner(
                self.nalix, interval=self.config.canary_interval,
                tasks=self.config.canary_tasks,
                goldens=self.config.canary_goldens,
                on_drift=self._canary_drift,
                audit=self.audit, recorder=self.recorder,
            )
            if self.config.canary
            else None
        )
        self.window = LatencyWindow(self.config.window)
        # Wall clock for the serialized timestamp, monotonic for the
        # uptime interval: NTP steps must not bend uptime_seconds.
        self.started_at = time.time()
        self._started_monotonic = time.monotonic()
        self._request_ids = itertools.count(1)
        self._draining = threading.Event()
        self._stopped = threading.Event()
        self._httpd = None
        self._thread = None

    # -- lifecycle ---------------------------------------------------------

    def start(self):
        """Bind and serve in a background thread; returns the port."""
        if self._httpd is not None:
            raise RuntimeError("server is already running")
        self._httpd = _ServeHTTPServer(
            (self.config.host, self.config.port), _Handler
        )
        self._httpd.repro_server = self
        self.config.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-serve", daemon=True,
        )
        self._thread.start()
        if self.watchdog is not None:
            self.watchdog.start()
        if self.canary is not None:
            self.canary.start()
        return self.config.port

    @property
    def url(self):
        return f"http://{self.config.host}:{self.config.port}"

    @property
    def draining(self):
        return self._draining.is_set()

    def drain(self, grace=None):
        """Stop admitting, wait for in-flight queries; True when empty.

        Bounded: every admitted query runs under a budget deadline, so
        the wait can never exceed ``grace`` (default: the configured
        ``drain_grace``, itself derived from the max query timeout).
        """
        grace = self.config.drain_grace if grace is None else grace
        started = time.perf_counter()
        self._draining.set()
        self.admission.start_draining()
        deadline = started + grace
        while self.admission.inflight > 0 and time.perf_counter() < deadline:
            time.sleep(0.02)
        _DRAIN_SECONDS.set(time.perf_counter() - started)
        return self.admission.inflight == 0

    def stop(self, grace=None):
        """Drain, stop the listener, flush and close the audit log."""
        if self._stopped.is_set():
            return
        self.drain(grace=grace)
        if self.canary is not None:
            self.canary.stop()
        if self.watchdog is not None:
            self.watchdog.stop()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if self.audit is not None:
            self.audit.close()
        self._stopped.set()

    def serve_until_signal(self, signals=(signal.SIGTERM, signal.SIGINT),
                           on_ready=None):
        """Start, run until SIGTERM/SIGINT, then drain and stop (CLI entry).

        Must be called from the main thread (signal handler rules).
        The handlers go in before the listener binds, so a signal sent
        as soon as ``/readyz`` answers still drains; ``on_ready()`` runs
        once the server is listening (the CLI prints its banner there).
        Returns the signal number that stopped the server.  When the
        config names a ``dump_signal`` (e.g. SIGUSR1) that signal
        triggers a flight-recorder dump *without* stopping the server.
        """
        received = {}
        # A self-pipe, not an Event: the handler runs on the main thread,
        # possibly inside the wait it ends, so it must take no lock.
        wake_read, wake_write = os.pipe()

        def _on_signal(signum, frame):
            received["signum"] = signum
            os.write(wake_write, b"\0")

        def _on_dump_signal(signum, frame):
            self.trigger_dump(f"signal-{signum}")

        previous = {
            signum: signal.signal(signum, _on_signal) for signum in signals
        }
        if self.config.dump_signal is not None:
            previous[self.config.dump_signal] = signal.signal(
                self.config.dump_signal, _on_dump_signal
            )
        try:
            if self._httpd is None:
                self.start()
            if on_ready is not None:
                on_ready()
            os.read(wake_read, 1)
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            os.close(wake_read)
            os.close(wake_write)
        self.stop()
        return received.get("signum")

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.stop()
        return False

    # -- per-request helpers (called from handler threads) -----------------

    def clamp_timeout(self, requested):
        """The effective per-query deadline for a client-requested one."""
        if requested is None:
            return self.config.default_timeout
        try:
            timeout = float(requested)
        except (TypeError, ValueError):
            raise _HTTPError(400, "bad-timeout",
                             f"timeout must be a number, got {requested!r}")
        if timeout <= 0:
            raise _HTTPError(400, "bad-timeout",
                             "timeout must be positive")
        if self.config.max_timeout is not None:
            timeout = min(timeout, self.config.max_timeout)
        return timeout

    def next_request_id(self):
        return f"r{next(self._request_ids):08d}"

    @staticmethod
    def _slo_specs(slos):
        """Coerce configured SLOs (strings or SLOSpec) into specs."""
        if slos is None:
            return None  # SLOEngine default
        return [
            spec if isinstance(spec, SLOSpec) else SLOSpec.parse(spec)
            for spec in slos
        ]

    def trigger_dump(self, reason):
        """Fire a flight-recorder auto-dump (breaker-open, watchdog-hard,
        SLO fast-burn, SIGUSR1).  Safe no-op without a recorder or a
        dump dir; the dump event also lands in the access log."""
        if self.recorder is None:
            return None
        prefix = self.recorder.trigger_dump(reason)
        if prefix is not None and self.audit is not None:
            self.audit.record_event(
                "flightrecorder-dump", reason=str(reason), prefix=prefix,
            )
        return prefix

    def _watchdog_event(self, kind, entry):
        """Watchdog hook: a hard expiry is incident-grade evidence."""
        if kind == "expired":
            self.trigger_dump(f"watchdog-hard-{entry.request_id}")

    def _canary_drift(self, failing):
        """Canary hook: answer drift is incident-grade evidence too."""
        self.trigger_dump("canary-drift-" + "-".join(failing))

    def resilience_plan(self, timeout):
        """(meter, pre_degrade, probe) for one admitted ``/query``.

        Half-open breaker probes run the full-fidelity path (the
        breaker must observe real recovery); everything else consults
        the brownout ladder, which may tighten the budget and/or
        pre-degrade the request down the evaluation ladder.  The meter
        is started here — before ``ask`` — so the stuck-query watchdog
        holds a live reference it can force-expire.
        """
        budget = QueryBudget.default(deadline_seconds=timeout)
        probe = self.breakers.acquire_probe()
        pre_degrade = None
        if self.brownout is not None:
            pressure = (
                self.admission.inflight / self.config.max_inflight
                if self.config.max_inflight
                else 0.0
            )
            self.brownout.observe(
                pressure, breaker_open=self.breakers.any_open()
            )
            if not probe:
                budget, pre_degrade = self.brownout.plan(budget)
        return budget.start(), pre_degrade, probe

    def render_result(self, result, payload, tenant, seconds,
                      request_id=None, trace_id=None):
        """(http_status, body) for one finished :class:`QueryResult`."""
        limit = payload.get("limit", self.config.result_limit)
        try:
            limit = max(0, int(limit))
        except (TypeError, ValueError):
            raise _HTTPError(400, "bad-limit",
                             f"limit must be an integer, got {limit!r}")
        values = result.values()
        body = {
            "request_id": request_id or self.next_request_id(),
            "trace_id": trace_id,
            "tenant": tenant,
            "sentence": result.sentence,
            "status": result.status,
            "error_class": result.error_class,
            "retryable": result.retryable,
            "degraded": result.degraded,
            "xquery": result.xquery_text,
            "answer_digest": getattr(result, "answer_digest", None),
            "result_count": len(values),
            "results": values[:limit],
            "truncated": len(values) > limit,
            "seconds": seconds,
            "feedback": [
                {
                    "severity": message.kind,
                    "code": message.code,
                    "text": message.text,
                    "suggestion": message.suggestion,
                }
                for message in result.feedback.messages
            ],
        }
        if payload.get("explain"):
            body["explain"] = explain(result).to_dict()
        if result.status in ("ok", "degraded"):
            status = 200
        elif result.status == "rejected":
            status = 422
        elif result.error_class == "exhausted":
            status = 504
        else:
            status = 500
        return status, body

    def run_raw_xquery(self, query_text, tenant):
        """The gated raw-XQuery path: lint first, then evaluate.

        The qlint gate is the read-only/validity guarantee for text
        that did not come out of our own translator: any analyzer
        *error* refuses execution outright (HTTP 400 with the
        findings).  Evaluation runs under the default budget.
        """
        try:
            expr = parse_xquery(query_text)
        except Exception as error:
            return 400, {"error": "xquery-parse",
                         "message": f"unparseable XQuery: {error}"}
        report = analyze_query(expr)
        findings = [
            {"rule": finding.rule_id, "severity": finding.severity,
             "message": finding.render()}
            for finding in report.findings
        ]
        if report.errors:
            METRICS.inc("serve.xquery.rejected")
            return 400, {"error": "xquery-rejected",
                         "message": "the query failed static analysis",
                         "findings": findings}
        budget = QueryBudget.default(
            deadline_seconds=self.config.default_timeout
        )
        try:
            with activate_budget(budget.start()):
                items = self.nalix.evaluator.run(expr)
        except Exception as error:
            return 500, {"error": "xquery-evaluation",
                         "message": f"{type(error).__name__}: {error}",
                         "findings": findings}
        values = [
            string_value(item) if isinstance(item, Node) else str(item)
            for item in items
        ]
        return 200, {
            "request_id": self.next_request_id(),
            "tenant": tenant,
            "result_count": len(values),
            "results": values[: self.config.result_limit],
            "truncated": len(values) > self.config.result_limit,
            "findings": findings,
        }

    def record_outcome(self, endpoint, tenant, result, seconds,
                       http_status, request_id=None, trace_id=None,
                       entry=None):
        """Post-request observability: feed the SLO engine, run the
        tail sampler, park retained traces in the flight recorder, and
        observe the latency windows (with an exemplar when retained).

        Returns True when the trace landed in the recorder — only then
        does the exemplar ride the metrics, so every exported exemplar
        resolves to a record the recorder actually holds.
        """
        if self.slo is not None:
            self.slo.record_request(endpoint, http_status < 500, seconds)
        retained = False
        if self.sampler is not None and self.recorder is not None:
            stuck = bool(entry is not None and entry.stuck)
            expired = bool(entry is not None and entry.expired)
            decision = self.sampler.decide(
                status=result.status, error_class=result.error_class,
                seconds=seconds, stuck=stuck, expired=expired,
            )
            if decision.retain and trace_id is not None:
                record = self.recorder.record(
                    trace_id, trace=result.trace, reason=decision.reason,
                    request_id=request_id, tenant=tenant, endpoint=endpoint,
                    sentence=result.sentence, status=result.status,
                    error_class=result.error_class,
                    answer_digest=getattr(result, "answer_digest", None),
                    seconds=seconds, stuck=stuck, expired=expired,
                )
                retained = record is not None
        self.observe_request(
            endpoint, tenant, seconds,
            exemplar=trace_id if retained else None,
        )
        return retained

    def observe_request(self, endpoint, tenant, seconds, exemplar=None):
        self.window.observe(f"endpoint:{endpoint}", seconds,
                            exemplar=exemplar)
        self.window.observe(f"tenant:{tenant}", seconds, exemplar=exemplar)

    def access_log(self, result, **fields):
        if self.audit is not None:
            self.audit.record(result, extra=fields)

    # -- the ops surface ---------------------------------------------------

    def metrics_text(self):
        """The full Prometheus exposition for ``/metrics``."""
        extra = LATENCIES.prometheus_lines() + self.window.prometheus_lines()
        if self.slo is not None:
            extra = extra + self.slo.prometheus_lines()
        if self.canary is not None:
            extra = extra + self.canary.prometheus_lines()
        return prometheus_text(METRICS.snapshot(), extra_lines=extra)

    def status_snapshot(self):
        """The ``/statusz`` JSON document."""
        return {
            "uptime_seconds": time.monotonic() - self._started_monotonic,
            "started_at_unix": self.started_at,
            "draining": self.draining,
            "admission": self.admission.snapshot(),
            "breakers": self.breakers.snapshot(),
            "brownout": (
                self.brownout.snapshot() if self.brownout is not None
                else None
            ),
            "watchdog": (
                self.watchdog.snapshot() if self.watchdog is not None
                else None
            ),
            "windows": self.window.snapshot(),
            "slo": self.slo.snapshot() if self.slo is not None else None,
            "recorder": (
                self.recorder.snapshot() if self.recorder is not None
                else None
            ),
            "sampler": (
                self.sampler.snapshot() if self.sampler is not None
                else None
            ),
            "canary": (
                self.canary.snapshot() if self.canary is not None
                else None
            ),
            "racecheck": (
                racecheck.report() if racecheck.enabled() else None
            ),
            "inflight_requests": (
                self.registry.snapshot_entries()
                if self.registry is not None else []
            ),
            "config": {
                "max_inflight": self.config.max_inflight,
                "tenant_rate": self.config.tenant_rate,
                "tenant_inflight": self.config.tenant_inflight,
                "default_timeout": self.config.default_timeout,
                "max_timeout": self.config.max_timeout,
                "allow_xquery": self.config.allow_xquery,
            },
        }

    def __repr__(self):
        return f"ReproServer({self.url}, inflight={self.admission.inflight})"
