"""Open-loop HTTP load on a running ``repro serve`` over keep-alive
connections.

run.py starts the server, then this generator as ``python
bench/serveload.py --url URL --seed N --seconds S --trace 0|1``.  Two
threads, each holding one persistent HTTP/1.1 connection, send the
requests of one shared schedule in turn, each at its due time or as soon
as its connection is free when the server falls behind.  Latency is
timed from the due time, so a stall also counts against the requests
queued behind it.

The mix is the nine reference sentences and one invalid phrasing per
ten queries, plus one ``GET /metrics`` scrape per second.  The rate steps
up through :data:`RATES`; the first step is the reference step whose
latency is reported end to end.  Between steps the generator lets the
backlog drain.  A step aborts once any send is more than a second late:
its unsent requests are missed, not failed.
"""

from __future__ import annotations

import argparse
import http.client
import json
import sys
import threading
import time
from time import perf_counter
from urllib.parse import urlsplit

from measure import emit, percentile

RATES = (25, 50, 100, 200, 400)
THREADS = 2
#: A step meets the latency limit when its p90 (from due time) is at
#: most this, nothing failed or was missed, and it had no growing backlog.
LIMIT_P90_MS = 25.0
ABORT_LATE_S = 1.0
#: /metrics series whose deltas over the reference step give the
#: server-side per-layer numbers.
STAGE_SERIES = {
    "nlp.parse_ms": "parse", "core.classify_ms": "classify",
    "core.validate_ms": "validate", "core.translate_ms": "translate",
    "analysis.analyze_ms": "analyze", "xquery.parse_ms": "xquery_parse",
    "xquery.evaluate_ms": "evaluate",
}
PER_QUERY_SERIES = {
    "xquery.mqf_join_calls": "repro_planner_mqf_joins_total",
    "xquery.mqf_rows_in": "repro_planner_mqf_candidates_sum",
    "xquery.mqf_tuples_out": "repro_planner_mqf_tuples_sum",
    "database.tag_lookups": "repro_database_index_tag_lookups_total",
    "database.value_lookups": "repro_database_index_value_lookups_total",
    "core.rejected_frac": "repro_pipeline_status_rejected_total",
    "keyword_search.degraded_frac": "repro_pipeline_status_degraded_total",
}
_WARN_LIMIT = 5


class Request:
    """One scheduled request and what became of it."""

    __slots__ = ("due", "sentence", "expected", "number", "send", "recv",
                 "server_s", "problem", "sent", "waited")

    def __init__(self, due, sentence=None, expected=None):
        self.due = due
        self.number = None
        self.sentence = sentence  # None: a /metrics scrape
        self.expected = expected
        self.send = self.recv = self.server_s = None
        self.problem = None
        self.sent = False
        self.waited = False  # the thread was idle and slept until due


def build_mix(seed):
    """(sentence, Expected) for the reference sentences and the invalid
    phrasings, checked against the task golds of the served collection,
    and the seconds taken to generate and load that collection here.

    The server's own generate and load cannot be timed from outside it.
    These timings are a client-side proxy: the same public calls on the
    same collection, in this process.
    """
    from oracle import REJECT, task_expected
    from repro.data import DblpConfig, generate_dblp
    from repro.database.store import Database
    from repro.evaluation.tasks import TASKS, reference_sentences

    started = perf_counter()
    document = generate_dblp(DblpConfig(books=120, seed=seed))
    generated = perf_counter()
    database = Database()
    database.load_document(document)
    timings = {"data.generate_s": generated - started,
               "database.load_s": perf_counter() - generated}
    valid = [(sentence, task_expected(task_id, database))
             for task_id, sentence in reference_sentences()]
    invalid = [(phrasing.text, REJECT) for task in TASKS
               for phrasing in task.phrasings if not phrasing.valid]
    return valid, invalid, timings


def schedule(start, rate, seconds, valid, invalid, offset):
    """Requests of one step, evenly spaced at ``rate``.

    One slot a second, half-way through it, is a scrape.  Taking a slot
    keeps each connection's sends evenly spaced, which keeps the
    client's delayed-ACK state the same from run to run (see run_step).
    """
    requests = []
    for index in range(max(1, int(rate * seconds))):
        number = offset + index
        due = start + index / rate
        if index % rate == rate // 2:
            request = Request(due)
        elif number % 10 == 9:
            request = Request(due, *invalid[(number // 10) % len(invalid)])
        else:
            request = Request(due, *valid[number % len(valid)])
        request.number = number
        requests.append(request)
    return requests


class Client:
    """One keep-alive connection."""

    def __init__(self, host, port):
        self.host, self.port = host, port
        self.connection = None

    def fetch(self, method, path, body=None):
        if self.connection is None:
            self.connection = http.client.HTTPConnection(
                self.host, self.port, timeout=30)
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            self.connection.request(method, path, body=body, headers=headers)
            response = self.connection.getresponse()
            return response.status, response.getheaders(), response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise

    def close(self):
        if self.connection is not None:
            self.connection.close()
            self.connection = None


def run_step(clients, requests, tracer=None):
    """Send ``requests`` from one thread per client; returns when drained.

    Requests alternate between the connections, so at a steady rate each
    connection sends at an even spacing.  That matters: the handler
    writes headers and body separately, and a client that sends its next
    request soon after a response enters delayed-ACK mode and stalls each
    response by about 40 ms.  Uneven spacing (a scrape squeezed between
    two queries, or free choice of connection) tipped some runs into
    that mode and not others, and the reference latency jumped between
    about 5 and 45 ms.

    With a ``tracer``, each finished request records its spans at once.
    """
    from oracle import check_response

    aborted = threading.Event()

    def loop(share, client):
        for request in share:
            if aborted.is_set():
                return
            delay = request.due - perf_counter()
            if delay > 0:
                request.waited = True
                time.sleep(delay)
            send = perf_counter()
            if send - request.due > ABORT_LATE_S:
                aborted.set()
                return
            request.send = send
            request.sent = True
            try:
                if request.sentence is None:
                    status, _, payload = client.fetch("GET", "/metrics")
                    request.recv = perf_counter()
                    if status != 200 or not payload:
                        request.problem = f"/metrics answered HTTP {status}"
                else:
                    body = json.dumps({"sentence": request.sentence})
                    status, headers, payload = client.fetch(
                        "POST", "/query", body.encode())
                    request.recv = perf_counter()
                    request.server_s = float(
                        dict(headers)["X-Repro-Seconds"])
                    request.problem = check_response(
                        request.expected, status, json.loads(payload))
            except (OSError, http.client.HTTPException, KeyError,
                    ValueError) as error:
                request.recv = perf_counter()
                request.problem = f"{type(error).__name__}: {error}"
            if tracer is not None:
                record_spans(tracer, request)

    threads = [threading.Thread(target=loop,
                                args=(requests[index::len(clients)], client))
               for index, client in enumerate(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def step_summary(requests):
    queries = [r for r in requests if r.sentence is not None]
    done = [r for r in queries if r.recv is not None]
    latencies = [(r.recv - r.due) * 1000 for r in done]
    missed = sum(1 for r in requests if not r.sent)
    failed = sum(1 for r in requests if r.problem is not None)
    start = requests[0].due
    last = max((r.recv for r in requests if r.recv is not None),
               default=start)
    summary = {
        "achieved_qps": len(done) / max(last - start, 1e-9),
        "p50_ms": percentile(latencies, 0.5) if latencies else 0.0,
        "p90_ms": percentile(latencies, 0.9) if latencies else 0.0,
        "missed_frac": missed / len(requests),
    }
    quarter = len(latencies) // 4
    steady = quarter == 0 or (
        percentile(latencies[-quarter:], 0.5)
        <= 2 * percentile(latencies[:quarter], 0.5)
    )
    summary["meets_limit"] = bool(
        latencies and summary["p90_ms"] <= LIMIT_P90_MS and not missed
        and not failed and steady
    )
    return summary


def scrape_values(client):
    """The plain (unlabelled) samples of one /metrics scrape."""
    _, _, payload = client.fetch("GET", "/metrics")
    values = {}
    for line in payload.decode("utf-8").splitlines():
        if line.startswith("#") or "{" in line or " " not in line:
            continue
        name, value = line.rsplit(" ", 1)
        try:
            values[name] = float(value)
        except ValueError:
            continue
    return values


def server_layers(before, after, requests):
    """Per-layer metrics of the reference step from /metrics deltas.

    A series missing from either scrape (renamed, say) makes the metrics
    read from it null, with a warning.
    """

    def delta(name):
        if name not in before or name not in after:
            print(f"warning: /metrics has no series {name}; its per-layer "
                  "metrics read null", file=sys.stderr)
            return None
        return after[name] - before[name]

    def ratio(numerator, denominator, scale=1.0):
        if numerator is None or denominator is None:
            return None
        return numerator / denominator * scale if denominator else 0.0

    queries = delta("repro_pipeline_queries_total")
    metrics = {
        name: ratio(delta(f"repro_pipeline_stage_{stage}_seconds_sum"),
                    queries, 1000)
        for name, stage in STAGE_SERIES.items()
    }
    for name, series in PER_QUERY_SERIES.items():
        metrics[name] = ratio(delta(series), queries)
    metrics["xquery.mqf_rows_per_tuple"] = ratio(
        delta("repro_planner_mqf_candidates_sum"),
        delta("repro_planner_mqf_tuples_sum"))
    done = [r for r in requests if r.sentence is not None and r.recv]
    server_ms = [r.server_s * 1000 for r in done]
    transport_ms = [(r.recv - r.send) * 1000 - r.server_s * 1000
                    for r in done]
    stage_ms = [metrics[name] for name in STAGE_SERIES]
    ask_ms = None if None in stage_ms else sum(stage_ms)
    scrapes = [(r.recv - r.send) * 1000 for r in requests
               if r.sentence is None and r.recv]
    late = [(r.send - r.due) * 1000 for r in requests if r.waited and r.send]
    metrics.update({
        "serve.server_p50_ms": percentile(server_ms, 0.5),
        "serve.server_p90_ms": percentile(server_ms, 0.9),
        "serve.ask_ms": ask_ms,
        "serve.overhead_ms": None if ask_ms is None
        else sum(server_ms) / len(server_ms) - ask_ms,
        "serve.transport_p50_ms": percentile(transport_ms, 0.5),
        "serve.transport_p90_ms": percentile(transport_ms, 0.9),
        "serve.client_wait_ms": sum((r.send - r.due) * 1000 for r in done)
        / len(done),
        "serve.gen_late_ms": max(late, default=0.0),
        "serve.scrape_ms": sum(scrapes) / len(scrapes) if scrapes else 0.0,
    })
    return metrics


def record_spans(tracer, request):
    """A query or scrape span with its wait, its HTTP exchange and the
    server's share of that.  The server's clock is not shared, so its
    span is centred in the exchange."""
    number = request.number
    name = "query" if request.sentence is not None else "scrape"
    root = tracer.add(name, request.due, request.recv, request=number)
    tracer.add("client.wait", request.due, request.send, root, number)
    exchange = tracer.add("http", request.send, request.recv, root, number)
    if request.server_s is not None:
        slack = (request.recv - request.send - request.server_s) / 2
        tracer.add("server", request.send + slack,
                   request.send + slack + request.server_s, exchange, number)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--url", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", metavar="PATH")
    args = parser.parse_args(argv)

    valid, invalid, timings = build_mix(args.seed)
    address = urlsplit(args.url)
    clients = [Client(address.hostname, address.port) for _ in range(THREADS)]
    probe = Client(address.hostname, address.port)

    # Untimed warm pass: every query of the mix once.
    now = perf_counter()
    warm = [Request(now, sentence, expected)
            for sentence, expected in valid + invalid]
    run_step(clients, warm)
    warm_failed = sum(1 for r in warm if r.problem is not None)

    seconds = args.seconds
    plan = [(RATES[0], seconds / 2)] + [(rate, seconds / 8)
                                        for rate in RATES[1:]]
    tracer = untraced_p50 = None
    checked = []
    if args.trace:
        from spans import Tracer

        # The first quarter runs the reference rate untraced, so tracing
        # overhead can be read against it.
        base = schedule(perf_counter() + 0.05, RATES[0], seconds / 4,
                        valid, invalid, 0)
        run_step(clients, base)
        checked.append(base)
        untraced_p50 = step_summary(base)["p50_ms"]
        time.sleep(0.2)
        plan[0] = (RATES[0], seconds / 4)
        tracer = Tracer()

    steps = []
    layers = None
    offset = 0
    for rate, length in plan:
        before = scrape_values(probe) if rate == RATES[0] else None
        requests = schedule(perf_counter() + 0.05, rate, length, valid,
                            invalid, offset)
        offset += len(requests)
        run_step(clients, requests, tracer)
        if before is not None:
            layers = server_layers(before, scrape_values(probe), requests)
        steps.append((rate, requests))
        checked.append(requests)
        time.sleep(0.2)  # let the server settle before the next step
    for client in clients + [probe]:
        client.close()

    attempted = failed = 0
    for requests in checked:
        for request in requests:
            if request.sent:
                attempted += 1
            if request.problem is not None:
                failed += 1
                if failed <= _WARN_LIMIT:
                    print(f"wrong: {request.sentence!r}: {request.problem}",
                          file=sys.stderr)
    summaries = {rate: step_summary(requests) for rate, requests in steps}
    reference = [(r.recv - r.due) * 1000 for r in steps[0][1]
                 if r.sentence is not None and r.recv is not None]
    if not args.trace:
        metrics = {
            "qps": max(s["achieved_qps"] for s in summaries.values()),
            "latency_p50_ms": percentile(reference, 0.5),
            "latency_p90_ms": percentile(reference, 0.9),
        }
    else:
        if args.trace_out:
            tracer.write_chrome(args.trace_out)
        metrics = dict(layers, **timings)
        metrics["trace.overhead_frac"] = (
            percentile(reference, 0.5) / untraced_p50 - 1
        )
        metrics["serve.max_rate_qps"] = max(
            (rate for rate, s in summaries.items() if s["meets_limit"]),
            default=0,
        )
        for rate, summary in summaries.items():
            for key in ("achieved_qps", "p50_ms", "p90_ms", "missed_frac"):
                metrics[f"serve.r{rate}.{key}"] = summary[key]
    emit("RESULT", {"attempted": attempted, "failed": failed,
                    "warm_failed": warm_failed, "metrics": metrics})
    return 0


if __name__ == "__main__":
    sys.exit(main())
