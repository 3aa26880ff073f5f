"""``repro replay``: differential re-execution of an audit log.

The audit/access trail already records what every query answered —
since the answer-fingerprint work, each line carries the canonical
``answer_digest`` next to the status and stage timings.  Replay closes
the loop: read a JSONL audit log (rotated ``.1`` sibling included, via
the shared hardened :func:`repro.obs.audit.iter_records` parser),
re-execute every recorded sentence against the *current* build — an
in-process pipeline by default, or a live server with ``--url`` — and
diff what came back against what the log promised:

* **digest**: recorded vs replayed answer fingerprint.  A mismatch is
  the headline failure — the same question now yields a different
  answer — and fails the run (exit code 1).
* **status**: ``ok`` → ``degraded`` (or any transition) with an intact
  digest is a WARN — the answer survived but travelled a different
  path, which is how silent ladder regressions look.
* **latency**: recorded vs replayed p50/p95/p99 of end-to-end seconds,
  reported as deltas (informational; latency is measured by the
  benchmark in ``bench/``, not by a log diff).

Records without a digest (logs from before the fingerprint era, or
event lines like ``watchdog-stuck``) are SKIPped, not failed, so
replay degrades gracefully over historical logs.  Each row gets one
of four verdicts (PASS/WARN/FAIL/SKIP), reported in text or
``--github`` annotation form; the run exits 1 only on FAIL.
"""

from __future__ import annotations

import json

from repro.obs.audit import ReadStats, iter_records
from repro.obs.quantiles import nearest_rank

#: Tenant replayed queries run under in ``--url`` mode, so a live
#: server's per-tenant surfaces show replay traffic under its own name.
REPLAY_TENANT = "replay"

#: Per-row verdicts, in the order the summary line reports them.
PASS, WARN, FAIL, SKIP = "pass", "warn", "fail", "skip"


class ReplayConfig:
    """Everything one replay run needs.

    ``url`` switches the executor from the in-process pipeline to a
    live server; ``limit`` caps the number of replayed records (0 or
    ``None`` replays everything); ``rotated`` chains the ``.1`` file.
    """

    def __init__(self, log_path, url=None, tenant=REPLAY_TENANT,
                 timeout=10.0, limit=None, rotated=True):
        self.log_path = log_path
        self.url = url
        self.tenant = tenant
        self.timeout = timeout
        self.limit = limit
        self.rotated = rotated

    def __repr__(self):
        target = self.url or "in-process"
        return f"ReplayConfig({self.log_path!r} -> {target})"


class ReplayRow:
    """One replayed query: the recorded promise vs the fresh answer."""

    __slots__ = ("sentence", "recorded_digest", "replayed_digest",
                 "recorded_status", "replayed_status", "recorded_seconds",
                 "replayed_seconds", "verdict", "note")

    def __init__(self, sentence, recorded_digest, replayed_digest,
                 recorded_status, replayed_status, recorded_seconds,
                 replayed_seconds, verdict, note=""):
        self.sentence = sentence
        self.recorded_digest = recorded_digest
        self.replayed_digest = replayed_digest
        self.recorded_status = recorded_status
        self.replayed_status = replayed_status
        self.recorded_seconds = recorded_seconds
        self.replayed_seconds = replayed_seconds
        self.verdict = verdict
        self.note = note

    def to_dict(self):
        return {
            "sentence": self.sentence,
            "recorded_digest": self.recorded_digest,
            "replayed_digest": self.replayed_digest,
            "recorded_status": self.recorded_status,
            "replayed_status": self.replayed_status,
            "recorded_seconds": self.recorded_seconds,
            "replayed_seconds": self.replayed_seconds,
            "verdict": self.verdict,
            "note": self.note,
        }

    def __repr__(self):
        return f"ReplayRow({self.verdict}, {self.sentence[:40]!r})"


def classify_row(recorded_digest, replayed_digest, recorded_status,
                 replayed_status, execution_error=None):
    """The replay verdict for one record; returns ``(verdict, note)``.

    The ladder, most severe first: an executor failure or a digest
    mismatch FAILs; a matching digest that travelled a different status
    path WARNs; a record with no recorded digest SKIPs (pre-fingerprint
    logs stay replayable); everything else PASSes.
    """
    if execution_error:
        return FAIL, f"replay execution failed: {execution_error}"
    if recorded_digest is None:
        return SKIP, "no recorded answer digest (pre-fingerprint record)"
    if replayed_digest != recorded_digest:
        return FAIL, (
            f"answer drift: recorded {recorded_digest} != "
            f"replayed {replayed_digest}"
        )
    if recorded_status != replayed_status:
        return WARN, (
            f"same answer via a different path: status "
            f"{recorded_status} -> {replayed_status}"
        )
    return PASS, ""


def _quantiles(samples):
    if not samples:
        return None
    ordered = sorted(samples)
    return {
        "p50": nearest_rank(ordered, 0.50),
        "p95": nearest_rank(ordered, 0.95),
        "p99": nearest_rank(ordered, 0.99),
    }


class ReplayReport:
    """The differential report: rows + verdict counts + latency deltas."""

    def __init__(self, rows, log_path, target, read_stats=None):
        self.rows = list(rows)
        self.log_path = log_path
        self.target = target
        self.read_stats = read_stats

    # -- verdict arithmetic ---------------------------------------------------

    def counts(self):
        counts = {PASS: 0, WARN: 0, FAIL: 0, SKIP: 0}
        for row in self.rows:
            counts[row.verdict] = counts.get(row.verdict, 0) + 1
        return counts

    @property
    def exit_code(self):
        """1 when any answer drifted (FAIL); warnings stay green."""
        return 1 if self.counts()[FAIL] else 0

    def latency(self):
        """Recorded vs replayed quantiles plus per-quantile deltas."""
        recorded = _quantiles(
            [row.recorded_seconds for row in self.rows
             if row.recorded_seconds is not None]
        )
        replayed = _quantiles(
            [row.replayed_seconds for row in self.rows
             if row.replayed_seconds is not None]
        )
        deltas = None
        if recorded and replayed:
            deltas = {
                name: replayed[name] - recorded[name]
                for name in ("p50", "p95", "p99")
            }
        return {
            "recorded": recorded,
            "replayed": replayed,
            "delta_seconds": deltas,
        }

    # -- renderers ------------------------------------------------------------

    def render_text(self):
        counts = self.counts()
        lines = [
            f"replay: {self.log_path} -> {self.target}",
            f"records: {len(self.rows)} replayed"
            + (
                f" ({self.read_stats.skipped} corrupt rows skipped, "
                f"{self.read_stats.files} files)"
                if self.read_stats is not None else ""
            ),
            "verdicts: "
            + ", ".join(
                f"{counts[name]} {name}"
                for name in (PASS, WARN, FAIL, SKIP)
            ),
        ]
        latency = self.latency()
        if latency["delta_seconds"] is not None:
            for name in ("p50", "p95", "p99"):
                lines.append(
                    f"latency {name}: recorded "
                    f"{latency['recorded'][name] * 1000:.2f} ms, replayed "
                    f"{latency['replayed'][name] * 1000:.2f} ms "
                    f"(delta {latency['delta_seconds'][name] * 1000:+.2f} ms)"
                )
        for row in self.rows:
            if row.verdict in (FAIL, WARN):
                lines.append(
                    f"  [{row.verdict.upper()}] {row.sentence!r}: {row.note}"
                )
        verdict = "FAIL" if self.exit_code else "PASS"
        lines.append(f"replay verdict: {verdict}")
        return "\n".join(lines)

    def to_json(self):
        return json.dumps(
            {
                "log_path": self.log_path,
                "target": self.target,
                "counts": self.counts(),
                "latency": self.latency(),
                "exit_code": self.exit_code,
                "rows": [row.to_dict() for row in self.rows],
            },
            indent=2, sort_keys=True,
        )

    def github_annotations(self):
        """GitHub Actions ``::warning``/``::error`` annotation lines."""
        lines = []
        for row in self.rows:
            if row.verdict == FAIL:
                lines.append(
                    f"::error title=answer drift::{row.sentence}: {row.note}"
                )
            elif row.verdict == WARN:
                lines.append(
                    f"::warning title=replay status change::"
                    f"{row.sentence}: {row.note}"
                )
        return lines

    def __repr__(self):
        counts = self.counts()
        return (
            f"ReplayReport({len(self.rows)} rows, "
            f"fail={counts[FAIL]}, warn={counts[WARN]})"
        )


# -- executors -----------------------------------------------------------------


def _local_executor(nalix, timeout):
    def run(sentence):
        result = nalix.ask(sentence, timeout=timeout)
        return (
            getattr(result, "answer_digest", None),
            result.status,
            result.total_seconds,
            None,
        )

    return run


def _url_executor(client, tenant, timeout):
    def run(sentence):
        outcome = client.query(sentence, timeout=timeout, tenant=tenant)
        if outcome.transport_error is not None:
            return None, None, None, outcome.transport_error
        body = outcome.body if isinstance(outcome.body, dict) else {}
        seconds = (
            outcome.server_seconds
            if outcome.server_seconds is not None
            else outcome.client_seconds
        )
        return (
            body.get("answer_digest"),
            body.get("status"),
            seconds,
            None if outcome.ok or body.get("status") else
            f"HTTP {outcome.status}",
        )

    return run


def load_replay_records(config, stats=None):
    """The query records of the log, in write order, capped by ``limit``.

    Event lines (``watchdog-stuck``, ``canary-drift``, ...) share the
    JSONL trail but replay nothing, so they are filtered out here.
    """
    records = []
    for record in iter_records(
        config.log_path, rotated=config.rotated, stats=stats
    ):
        if "sentence" not in record or "event" in record:
            continue
        records.append(record)
        if config.limit and len(records) >= config.limit:
            break
    return records


def run_replay(config, nalix=None, client=None):
    """Replay one audit log; returns the :class:`ReplayReport`.

    In-process mode needs ``nalix`` (the CLI builds it from the same
    ``--data/--books/--seed`` spec that served the log); ``--url`` mode
    builds a :class:`~repro.serve.client.ServeClient` unless one is
    injected (tests pass a scripted transport through ``client``).
    """
    if config.url:
        if client is None:
            from repro.serve.client import ServeClient

            client = ServeClient(config.url, timeout=config.timeout)
        execute = _url_executor(client, config.tenant, config.timeout)
        target = config.url
    else:
        if nalix is None:
            raise ValueError("in-process replay needs a nalix pipeline")
        execute = _local_executor(nalix, config.timeout)
        target = "in-process"

    stats = ReadStats()
    rows = []
    for record in load_replay_records(config, stats=stats):
        sentence = record["sentence"]
        digest, status, seconds, error = execute(sentence)
        verdict, note = classify_row(
            record.get("answer_digest"), digest,
            record.get("status"), status, execution_error=error,
        )
        rows.append(
            ReplayRow(
                sentence,
                recorded_digest=record.get("answer_digest"),
                replayed_digest=digest,
                recorded_status=record.get("status"),
                replayed_status=status,
                recorded_seconds=record.get("total_seconds"),
                replayed_seconds=seconds,
                verdict=verdict,
                note=note,
            )
        )
    return ReplayReport(rows, config.log_path, target, read_stats=stats)
