"""Graceful shutdown: drain semantics, readiness flip, clean stop.

Includes the drain-while-faulting chaos cases: shutdown arriving while
injected faults (latency + exceptions) are in flight must still produce
classified responses for every admitted request, a complete access log,
and a bounded drain.
"""

import json
import os
import pathlib
import queue
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro
from repro.cli import main
from repro.obs.audit import read_audit_log
from repro.serve import ReproServer, ServeConfig


class SlowPipeline:
    """Wraps a NaLIX so every ask takes at least ``delay`` seconds."""

    def __init__(self, inner, delay):
        self._inner = inner
        self.delay = delay

    def ask(self, sentence, **kwargs):
        time.sleep(self.delay)
        return self._inner.ask(sentence, **kwargs)


def http_status(url, payload=None):
    if payload is None:
        request = url
    else:
        request = urllib.request.Request(
            url, data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"}, method="POST",
        )
    try:
        with urllib.request.urlopen(request, timeout=10.0) as response:
            response.read()
            return response.status
    except urllib.error.HTTPError as error:
        error.read()
        return error.code


@pytest.fixture
def slow_server(movie_nalix):
    config = ServeConfig(port=0, max_inflight=4)
    server = ReproServer(
        nalix=SlowPipeline(movie_nalix, delay=0.4), config=config
    )
    server.start()
    yield server
    server.stop()


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def test_drain_waits_for_inflight_and_flips_readyz(slow_server):
    server = slow_server
    statuses = []

    def _slow_request():
        statuses.append(
            http_status(server.url + "/query",
                        {"sentence": "find all titles"})
        )

    worker = threading.Thread(target=_slow_request)
    worker.start()
    assert wait_for(lambda: server.admission.inflight == 1)

    drained = {}
    drainer = threading.Thread(
        target=lambda: drained.setdefault("ok", server.drain())
    )
    drainer.start()
    assert wait_for(lambda: server.draining)

    # While draining: not ready, and new work is shed with 503.
    assert http_status(server.url + "/readyz") == 503
    rejected = http_status(server.url + "/query",
                           {"sentence": "find all titles"})
    assert rejected == 503

    worker.join(timeout=10.0)
    drainer.join(timeout=10.0)
    # The in-flight query finished normally; the drain saw it out.
    assert statuses == [200]
    assert drained["ok"] is True
    assert server.admission.inflight == 0


def test_drain_gives_up_after_grace(slow_server):
    server = slow_server
    worker = threading.Thread(
        target=lambda: http_status(server.url + "/query",
                                   {"sentence": "find all titles"})
    )
    worker.start()
    assert wait_for(lambda: server.admission.inflight == 1)
    assert server.drain(grace=0.05) is False  # query needs ~0.4s
    worker.join(timeout=10.0)


def test_stop_shuts_the_listener_down(movie_nalix):
    server = ReproServer(nalix=movie_nalix, config=ServeConfig(port=0))
    server.start()
    url = server.url
    assert http_status(url + "/healthz") == 200
    server.stop()
    with pytest.raises((urllib.error.URLError, OSError)):
        urllib.request.urlopen(url + "/healthz", timeout=2.0)


def test_stop_is_idempotent(movie_nalix):
    server = ReproServer(nalix=movie_nalix, config=ServeConfig(port=0))
    server.start()
    server.stop()
    server.stop()  # does not raise


def post_json(url, payload, timeout=10.0):
    """POST and return (status, parsed JSON body) — errors included."""
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def test_drain_while_faulting_yields_classified_responses(
    movie_nalix, tmp_path
):
    """Shutdown mid-chaos: every in-flight faulted request still ends
    classified, logged, and the drain stays bounded."""
    audit_path = tmp_path / "access.jsonl"
    config = ServeConfig(
        port=0, max_inflight=8, audit_path=str(audit_path),
        # Every query stalls 0.25s inside evaluate; 40% also hit an
        # injected translate exception (a classified internal failure).
        fault_plan=["evaluate:delay=0.25", "translate:p=0.4,seed=5"],
        watchdog_interval=0.05,
    )
    server = ReproServer(nalix=movie_nalix, config=config)
    server.start()
    try:
        outcomes = []
        outcomes_lock = threading.Lock()

        def _request():
            outcome = post_json(server.url + "/query",
                                {"sentence": "find all titles"})
            with outcomes_lock:
                outcomes.append(outcome)

        workers = [
            threading.Thread(target=_request, daemon=True) for _ in range(6)
        ]
        for worker in workers:
            worker.start()
        # All six are mid-fault (the 0.25s evaluate stall) when the
        # drain begins — none is turned away as draining.
        assert wait_for(lambda: server.admission.inflight == 6)
        drain_started = time.perf_counter()
        drained = server.drain()
        drain_seconds = time.perf_counter() - drain_started
        for worker in workers:
            worker.join(timeout=10.0)
    finally:
        server.stop()

    # Bounded drain: the in-flight stalls are 0.25s, so the drain saw
    # them out well inside the grace window.
    assert drained is True
    assert drain_seconds < config.drain_grace
    assert len(outcomes) == 6
    for status, body in outcomes:
        # Every admitted request ended classified — a 200 (possibly
        # degraded) or a taxonomy-classified failure, never a bare 500.
        assert status in (200, 500, 504)
        assert body["status"] in ("ok", "degraded", "failed")
        if status != 200:
            assert body["error_class"]
            assert any(
                entry["code"] == "injected-fault"
                for entry in body["feedback"]
            )

    # The access log is complete: one classified record per request.
    entries = [
        entry for entry in read_audit_log(str(audit_path))
        if "http_status" in entry
    ]
    assert len(entries) == 6
    assert all(entry["status"] in ("ok", "degraded", "failed")
               for entry in entries)


def test_sigterm_during_in_flight_faults_drains_cleanly(
    movie_nalix, tmp_path
):
    """The CLI path: SIGTERM mid-fault → drain → classified responses."""
    audit_path = tmp_path / "access.jsonl"
    config = ServeConfig(
        port=0, max_inflight=4, audit_path=str(audit_path),
        fault_plan=["evaluate:delay=0.3"],
    )
    server = ReproServer(nalix=movie_nalix, config=config)
    server.start()
    statuses = []

    def _request():
        statuses.append(
            http_status(server.url + "/query",
                        {"sentence": "find all titles"})
        )

    worker = threading.Thread(target=_request, daemon=True)

    def _fire_and_kill():
        worker.start()
        if wait_for(lambda: server.admission.inflight == 1):
            os.kill(os.getpid(), signal.SIGTERM)

    killer = threading.Thread(target=_fire_and_kill, daemon=True)
    killer.start()
    # Blocks in the main thread (signal-handler rules) until the
    # SIGTERM lands, then drains and stops.
    signum = server.serve_until_signal()
    worker.join(timeout=10.0)
    killer.join(timeout=10.0)

    assert signum == signal.SIGTERM
    assert statuses == [200]  # the in-flight faulted query was seen out
    assert server.admission.inflight == 0
    entries = [
        entry for entry in read_audit_log(str(audit_path))
        if "http_status" in entry
    ]
    assert len(entries) == 1
    assert entries[0]["http_status"] == 200


def test_stop_flushes_and_closes_the_access_log(movie_nalix, tmp_path):
    config = ServeConfig(port=0, audit_path=str(tmp_path / "access.jsonl"))
    server = ReproServer(nalix=movie_nalix, config=config)
    server.start()
    assert http_status(server.url + "/query",
                       {"sentence": "find all titles"}) == 200
    server.stop()
    with open(config.audit_path, encoding="utf-8") as handle:
        entries = [json.loads(line) for line in handle]
    assert len(entries) == 1
    assert entries[0]["http_status"] == 200


def test_cli_serve_handles_sigterm_from_the_moment_it_listens(monkeypatch):
    """The SIGTERM handler is in place when the listener binds."""
    default = signal.getsignal(signal.SIGTERM)
    at_bind = {}
    real_start = ReproServer.start

    def _start(self):
        port = real_start(self)
        at_bind["handler"] = signal.getsignal(signal.SIGTERM)

        def _terminate():
            # Signal only once some handler is in, or pytest dies too.
            if wait_for(
                lambda: signal.getsignal(signal.SIGTERM) != default
            ):
                os.kill(os.getpid(), signal.SIGTERM)

        threading.Thread(target=_terminate, daemon=True).start()
        return port

    monkeypatch.setattr(ReproServer, "start", _start)
    assert main(["serve", "--data", "movies", "--port", "0"]) == 0
    assert at_bind["handler"] != default


def test_sigterm_as_soon_as_ready_drains_the_process():
    """``repro serve`` drains on a SIGTERM sent once /readyz is 200.

    The child writes to a plain block-buffered pipe, as under a
    supervisor, so the port shows up only if the banner is flushed.
    """
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (src, env.get("PYTHONPATH")) if path
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env,
    )
    output = []
    banners = queue.Queue()

    def _read():
        for line in process.stdout:
            output.append(line)
            match = re.search(r"listening on (http://\S+)", line)
            if match:
                banners.put(match.group(1))

    reader = threading.Thread(target=_read, daemon=True)
    reader.start()
    try:
        try:
            url = banners.get(timeout=60.0)
        except queue.Empty:
            pytest.fail("no 'listening on' banner: " + "".join(output))
        while http_status(url + "/readyz") != 200:
            time.sleep(0.001)
        process.send_signal(signal.SIGTERM)
        returncode = process.wait(timeout=60.0)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    reader.join(timeout=10.0)
    assert not reader.is_alive()
    process.stdout.close()
    assert returncode == 0, "".join(output)
    assert "drained and stopped" in "".join(output)
