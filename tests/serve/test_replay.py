"""``repro replay``: differential re-execution of an audit log."""

import json

import pytest

from repro.core.interface import NaLIX
from repro.obs.audit import AuditLog
from repro.serve import ReplayConfig, ReproServer, ServeConfig, run_replay
from repro.serve.replay import (
    FAIL,
    PASS,
    SKIP,
    WARN,
    classify_row,
    load_replay_records,
)

SENTENCES = [
    "Return the title of every movie.",
    "Return every movie where year is greater than 1990.",
    "Return the director of every movie.",
]


def _record_log(path, database, sentences=SENTENCES):
    """Serve a few queries with the audit log on, like production."""
    log = AuditLog(str(path))
    nalix = NaLIX(database, audit_log=log)
    for sentence in sentences:
        nalix.ask(sentence)
    log.close()


@pytest.fixture()
def audit_log_path(tmp_path, movie_database):
    path = tmp_path / "access.jsonl"
    _record_log(path, movie_database)
    return path


class TestClassifyRow:
    def test_matching_digest_and_status_pass(self):
        assert classify_row("ab", "ab", "ok", "ok") == (PASS, "")

    def test_digest_mismatch_fails(self):
        verdict, note = classify_row("ab", "cd", "ok", "ok")
        assert verdict == FAIL
        assert "answer drift" in note

    def test_status_transition_with_intact_digest_warns(self):
        verdict, note = classify_row("ab", "ab", "ok", "degraded")
        assert verdict == WARN
        assert "ok -> degraded" in note

    def test_pre_fingerprint_record_skips(self):
        verdict, note = classify_row(None, "ab", "ok", "ok")
        assert verdict == SKIP
        assert "pre-fingerprint" in note

    def test_execution_error_trumps_everything(self):
        verdict, note = classify_row("ab", "ab", "ok", "ok",
                                     execution_error="connection refused")
        assert verdict == FAIL
        assert "connection refused" in note


class TestInProcessReplay:
    def test_fresh_log_replays_100_percent_match(
        self, audit_log_path, movie_database
    ):
        report = run_replay(
            ReplayConfig(str(audit_log_path)),
            nalix=NaLIX(movie_database),
        )
        assert len(report.rows) == len(SENTENCES)
        assert report.counts()[PASS] == len(SENTENCES)
        assert report.exit_code == 0
        assert report.render_text().endswith("replay verdict: PASS")
        assert report.github_annotations() == []

    def test_requires_a_pipeline(self, audit_log_path):
        with pytest.raises(ValueError):
            run_replay(ReplayConfig(str(audit_log_path)))

    def test_mutated_digest_is_answer_drift(
        self, audit_log_path, movie_database
    ):
        records = [
            json.loads(line)
            for line in audit_log_path.read_text().splitlines()
        ]
        records[1]["answer_digest"] = "0" * 16
        audit_log_path.write_text(
            "".join(json.dumps(record) + "\n" for record in records)
        )
        report = run_replay(
            ReplayConfig(str(audit_log_path)),
            nalix=NaLIX(movie_database),
        )
        counts = report.counts()
        assert counts[FAIL] == 1
        assert counts[PASS] == len(SENTENCES) - 1
        assert report.exit_code == 1
        assert report.render_text().endswith("replay verdict: FAIL")
        annotations = report.github_annotations()
        assert len(annotations) == 1
        assert annotations[0].startswith("::error title=answer drift::")

    def test_recorded_status_change_warns_not_fails(
        self, audit_log_path, movie_database
    ):
        records = [
            json.loads(line)
            for line in audit_log_path.read_text().splitlines()
        ]
        records[0]["status"] = "degraded"  # digest left intact
        audit_log_path.write_text(
            "".join(json.dumps(record) + "\n" for record in records)
        )
        report = run_replay(
            ReplayConfig(str(audit_log_path)),
            nalix=NaLIX(movie_database),
        )
        counts = report.counts()
        assert counts[WARN] == 1
        assert counts[FAIL] == 0
        assert report.exit_code == 0
        assert any(
            line.startswith("::warning title=replay status change::")
            for line in report.github_annotations()
        )

    def test_pre_fingerprint_records_skip(
        self, audit_log_path, movie_database
    ):
        records = [
            json.loads(line)
            for line in audit_log_path.read_text().splitlines()
        ]
        del records[2]["answer_digest"]
        audit_log_path.write_text(
            "".join(json.dumps(record) + "\n" for record in records)
        )
        report = run_replay(
            ReplayConfig(str(audit_log_path)),
            nalix=NaLIX(movie_database),
        )
        assert report.counts()[SKIP] == 1
        assert report.exit_code == 0

    def test_event_lines_are_not_replayed(
        self, tmp_path, movie_database
    ):
        path = tmp_path / "access.jsonl"
        log = AuditLog(str(path))
        nalix = NaLIX(movie_database, audit_log=log)
        nalix.ask(SENTENCES[0])
        log.record_event("canary-drift", tasks=["Q1"])
        log.record_event("watchdog-stuck", trace_id="t-1")
        log.close()
        records = load_replay_records(ReplayConfig(str(path)))
        assert len(records) == 1
        report = run_replay(ReplayConfig(str(path)),
                            nalix=NaLIX(movie_database))
        assert len(report.rows) == 1

    def test_rotated_sibling_replays_first(self, tmp_path, movie_database):
        base = tmp_path / "access.jsonl"
        _record_log(tmp_path / "access.jsonl.1", movie_database,
                    sentences=SENTENCES[:1])
        _record_log(base, movie_database, sentences=SENTENCES[1:])
        report = run_replay(ReplayConfig(str(base)),
                            nalix=NaLIX(movie_database))
        assert len(report.rows) == len(SENTENCES)
        assert report.rows[0].sentence == SENTENCES[0]
        assert report.read_stats.files == 2
        report = run_replay(ReplayConfig(str(base), rotated=False),
                            nalix=NaLIX(movie_database))
        assert len(report.rows) == len(SENTENCES) - 1

    def test_limit_caps_the_replay(self, audit_log_path, movie_database):
        report = run_replay(ReplayConfig(str(audit_log_path), limit=2),
                            nalix=NaLIX(movie_database))
        assert len(report.rows) == 2

    def test_latency_deltas_cover_the_quantiles(
        self, audit_log_path, movie_database
    ):
        report = run_replay(ReplayConfig(str(audit_log_path)),
                            nalix=NaLIX(movie_database))
        latency = report.latency()
        for name in ("p50", "p95", "p99"):
            assert latency["recorded"][name] >= 0
            assert latency["replayed"][name] >= 0
            assert isinstance(latency["delta_seconds"][name], float)

    def test_json_report_round_trips(self, audit_log_path, movie_database):
        report = run_replay(ReplayConfig(str(audit_log_path)),
                            nalix=NaLIX(movie_database))
        payload = json.loads(report.to_json())
        assert payload["exit_code"] == 0
        assert payload["counts"]["pass"] == len(SENTENCES)
        assert len(payload["rows"]) == len(SENTENCES)
        assert payload["rows"][0]["recorded_digest"] == \
            payload["rows"][0]["replayed_digest"]


class TestUrlReplay:
    def test_replaying_against_a_live_server_matches(
        self, audit_log_path, movie_database
    ):
        config = ServeConfig(port=0, max_inflight=4)
        with ReproServer(
            nalix=NaLIX(movie_database), config=config
        ) as server:
            report = run_replay(
                ReplayConfig(str(audit_log_path), url=server.url)
            )
        assert report.counts()[PASS] == len(SENTENCES)
        assert report.exit_code == 0
        assert report.target == server.url

    def test_unreachable_server_fails_the_run(self, audit_log_path):
        report = run_replay(
            ReplayConfig(
                str(audit_log_path),
                url="http://127.0.0.1:9",  # discard port: nothing listens
                timeout=0.5,
            )
        )
        assert report.counts()[FAIL] == len(SENTENCES)
        assert report.exit_code == 1
