"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, load_database, main


class TestLoadDatabase:
    def test_builtin_datasets(self):
        assert load_database("movies").has_tag("movie")
        assert load_database("bib").has_tag("price")
        assert load_database("dblp", books=10).has_tag("article")

    def test_file_path(self, tmp_path):
        path = tmp_path / "d.xml"
        path.write_text("<a><b>x</b></a>", encoding="utf-8")
        assert load_database(str(path)).has_tag("b")


class TestCommands:
    def test_query_success(self, capsys):
        code = main(
            ["query", "--data", "movies",
             "Return the title of every movie directed by Ron Howard."]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "Tribute" in output
        assert "XQuery:" in output

    def test_query_quiet(self, capsys):
        code = main(
            ["query", "--data", "movies", "--quiet",
             "Return the title of every movie."]
        )
        assert code == 0
        assert "XQuery:" not in capsys.readouterr().out

    def test_query_rejection_exit_code(self, capsys):
        code = main(
            ["query", "--data", "movies", "Return the isbn of every movie."]
        )
        assert code == 1
        assert "Error" in capsys.readouterr().out

    def test_xquery_command(self, capsys):
        code = main(
            ["xquery", 'for $t in doc("bib.xml")//title return $t']
        )
        assert code == 0
        assert "TCP/IP Illustrated" in capsys.readouterr().out

    def test_xquery_error_exit_code(self, capsys):
        code = main(["xquery", "this is not xquery"])
        assert code == 1

    def test_tasks_command(self, capsys):
        code = main(["tasks", "--books", "40"])
        output = capsys.readouterr().out
        assert code == 0
        assert output.count("P=") == 9

    def test_study_command(self, capsys):
        code = main(
            ["study", "--participants", "2", "--books", "20", "--seed", "3"]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "Figure 11" in output
        assert "Table 7" in output

    def test_generate_to_file(self, tmp_path, capsys):
        out = tmp_path / "dblp.xml"
        code = main(["generate", "--books", "5", "--out", str(out)])
        assert code == 0
        assert out.exists()
        from repro.database.store import Database

        database = Database()
        database.load_file(out)
        assert database.has_tag("book")

    def test_generate_to_stdout(self, capsys):
        code = main(["generate", "--books", "5"])
        assert code == 0
        assert "<dblp>" in capsys.readouterr().out


class TestObservabilityFlags:
    def test_query_trace_prints_span_tree(self, capsys):
        code = main(
            ["query", "--data", "movies", "--trace",
             "Return the title of every movie."]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "ask" in output
        assert "├─ parse" in output
        assert "└─ evaluate" in output
        assert "[ok]" in output

    def test_query_metrics_dump(self, capsys):
        code = main(
            ["query", "--data", "movies", "--metrics",
             "Return the title of every movie."]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert '"pipeline.queries"' in output
        assert '"pipeline.stage.translate.seconds"' in output

    def test_query_audit_log(self, tmp_path, capsys):
        from repro.obs.audit import read_audit_log

        path = tmp_path / "audit.jsonl"
        code = main(
            ["query", "--data", "movies", "--audit-log", str(path),
             "Return the title of every movie."]
        )
        assert code == 0
        (entry,) = read_audit_log(str(path))
        assert entry["status"] == "ok"
        assert entry["actor"] == "cli"

    def test_stats_command(self, capsys):
        code = main(["stats", "--books", "10"])
        output = capsys.readouterr().out
        assert code == 0
        assert "stage" in output
        assert "parse" in output
        assert "evaluate" in output
        assert "status: ok=" in output
        assert "rejected=" in output
        assert "failures by category:" in output

    def test_stats_good_only(self, capsys):
        code = main(["stats", "--books", "10", "--good-only"])
        output = capsys.readouterr().out
        assert code == 0
        assert "rejected=0" in output

    def test_tasks_audit_log(self, tmp_path, capsys):
        from repro.obs.audit import read_audit_log

        path = tmp_path / "audit.jsonl"
        code = main(
            ["tasks", "--books", "20", "--audit-log", str(path)]
        )
        assert code == 0
        entries = read_audit_log(str(path))
        assert len(entries) == 9
        assert all(
            entry["status"] in {"ok", "degraded", "rejected", "failed"}
            for entry in entries
        )


class TestExplainCommands:
    def test_explain_prints_lineage(self, capsys):
        code = main(
            ["explain", "--data", "movies",
             "Return the title of every movie directed by Ron Howard."]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "EXPLAIN" in output
        assert "Clause lineage (Figs. 4-6):" in output
        assert "Table 1:" in output
        assert "XQuery" in output
        assert "Plan (per-operator statistics):" in output

    def test_explain_rejected_shows_production(self, capsys):
        code = main(
            ["explain", "--data", "movies",
             "Return the isbn of every movie."]
        )
        output = capsys.readouterr().out
        assert code == 1
        assert "status: rejected" in output
        assert "production:" in output

    def test_explain_json(self, capsys):
        import json

        code = main(
            ["explain", "--data", "movies", "--json",
             "Return the title of every movie."]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "ok"
        assert report["provenance"]["tokens"]
        assert report["provenance"]["clauses"]
        assert report["plan"]["operators"]

    def test_explain_no_evaluate_skips_plan(self, capsys):
        code = main(
            ["explain", "--data", "movies", "--no-evaluate",
             "Return the title of every movie."]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "Plan (per-operator statistics):" not in output

    def test_query_explain_flag(self, capsys):
        code = main(
            ["query", "--data", "movies", "--explain",
             "Return the title of every movie."]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "XQuery:" in output          # the normal result block ...
        assert "lineage" in output          # ... plus the explain report

    def test_stats_format_prom(self, capsys):
        code = main(["stats", "--books", "10", "--format", "prom"])
        output = capsys.readouterr().out
        assert code == 0
        from tests.obs.test_export import parse_prometheus_text

        metrics = parse_prometheus_text(output)
        assert "repro_pipeline_queries_total" in metrics
        assert "repro_window_total_seconds" in metrics

    def test_stats_format_chrome_to_file(self, tmp_path, capsys):
        import json

        out = tmp_path / "trace.json"
        code = main(
            ["stats", "--books", "10", "--good-only",
             "--format", "chrome", "--out", str(out)]
        )
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        document = json.loads(out.read_text(encoding="utf-8"))
        events = document["traceEvents"]
        assert events[0]["ph"] == "M"
        assert sum(1 for event in events if event["ph"] == "X") > 0

    def test_stats_format_json(self, capsys):
        import json

        code = main(["stats", "--books", "10", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["counters"]["pipeline.queries"] > 0
        assert "total" in payload["latency_windows"]

    def test_stats_table_has_percentiles(self, capsys):
        code = main(["stats", "--books", "10"])
        output = capsys.readouterr().out
        assert code == 0
        assert "p50" in output
        assert "p95" in output
        assert "p99" in output


class TestResilienceFlags:
    def test_inject_fault_at_evaluate_degrades(self, capsys):
        code = main(
            ["query", "--data", "movies", "--inject-fault", "evaluate",
             "--trace", "Return the title of every movie."]
        )
        output = capsys.readouterr().out
        assert code == 0  # a degraded answer is still an answer
        assert "approximate results" in output
        assert "evaluate-naive" in output

    def test_inject_fault_at_parse_fails_cleanly(self, capsys):
        code = main(
            ["query", "--data", "movies", "--inject-fault", "parse",
             "Return the title of every movie."]
        )
        output = capsys.readouterr().out
        assert code == 1
        assert "injected" in output

    def test_inject_fault_bad_spec_exits(self):
        with pytest.raises(SystemExit):
            main(
                ["query", "--data", "movies", "--inject-fault", "nope",
                 "Return every movie."]
            )

    def test_timeout_flag(self, capsys):
        code = main(
            ["query", "--data", "movies", "--timeout", "30",
             "Return the title of every movie."]
        )
        assert code == 0
        code = main(
            ["query", "--data", "movies", "--timeout", "0",
             "Return the title of every movie."]
        )
        assert code == 1
        assert "budget" in capsys.readouterr().out

    def test_stats_resilience_counters(self, capsys, monkeypatch):
        from repro.obs.metrics import METRICS

        METRICS.counter("resilience.faults.injected").inc()
        code = main(["stats", "--books", "10", "--good-only"])
        output = capsys.readouterr().out
        assert code == 0
        assert "resilience counters:" in output
        assert "resilience.faults.injected" in output


class TestProfilingFlags:
    QUERY = (
        "Return every director, where the number of movies directed by "
        "the director is the same as the number of movies directed by "
        "Ron Howard."
    )

    def test_query_profile_writes_collapsed_file(self, tmp_path, capsys):
        out = tmp_path / "profile.collapsed"
        code = main(
            ["query", "--data", "movies", "--profile",
             "--profile-out", str(out), self.QUERY]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert out.exists()
        assert "profile:" in output
        stages = {
            "parse", "classify", "validate", "translate", "xquery-parse",
            "evaluate", "evaluate-naive", "evaluate-keyword", "ask",
            "(no-span)",
        }
        for line in out.read_text(encoding="utf-8").splitlines():
            stack, _, count = line.rpartition(" ")
            assert count.isdigit()
            assert stack.startswith("span:")
            # The root frame is a span-attribution frame for a real
            # pipeline stage (or the no-span bucket).
            root = stack.split(";", 1)[0].removeprefix("span:")
            assert root in stages

    def test_query_profile_default_out(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(
            ["query", "--data", "movies", "--profile",
             "Return the title of every movie."]
        )
        assert code == 0
        assert (tmp_path / "profile.collapsed").exists()

    def test_profile_subcommand_stdout_is_pipeable(self, capsys):
        code = main(
            ["profile", "--data", "movies", "--repeat", "5",
             "--hz", "500", self.QUERY]
        )
        captured = capsys.readouterr()
        assert code == 0
        # Summary lines go to stderr; stdout carries only stack lines.
        assert "profile:" in captured.err
        for line in captured.out.splitlines():
            stack, _, count = line.rpartition(" ")
            assert count.isdigit()
            assert stack.startswith("span:")

    def test_profile_subcommand_speedscope(self, tmp_path, capsys):
        import json

        out = tmp_path / "profile.speedscope.json"
        code = main(
            ["profile", "--data", "movies", "--repeat", "3",
             "--format", "speedscope", "--out", str(out),
             "Return the title of every movie."]
        )
        assert code == 0
        document = json.loads(out.read_text(encoding="utf-8"))
        assert document["$schema"].startswith("https://www.speedscope.app")
        assert document["profiles"][0]["type"] == "sampled"

    def test_profile_rejected_query_exit_code(self, capsys):
        code = main(
            ["profile", "--data", "movies", "--repeat", "1",
             "Return the isbn of every movie."]
        )
        assert code == 1

    def test_query_memory_flag(self, tmp_path, capsys):
        from repro.obs.audit import read_audit_log

        path = tmp_path / "audit.jsonl"
        code = main(
            ["query", "--data", "movies", "--memory",
             "--audit-log", str(path),
             "Return the title of every movie."]
        )
        assert code == 0
        (entry,) = read_audit_log(str(path))
        assert entry["alloc_bytes"] > 0
        assert entry["peak_rss_bytes"] > 0

    def test_stats_memory_columns(self, capsys):
        code = main(["stats", "--books", "10", "--good-only", "--memory"])
        output = capsys.readouterr().out
        assert code == 0
        assert "alloc KiB" in output
        assert "memory: peak rss" in output
        assert "KiB/query" in output


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for command in ("query", "repl", "xquery", "tasks", "stats",
                        "profile", "study", "generate"):
            args = parser.parse_args(
                [command]
                + (["x"] if command in ("query", "xquery", "profile")
                   else [])
            )
            assert args.command == command


class TestStatsFromLog:
    """``stats --from-log``: audit logs read via the shared parser."""

    def _capture(self, tmp_path, capsys):
        log = tmp_path / "audit.jsonl"
        assert main(
            ["query", "--data", "movies", "--audit-log", str(log),
             "Return the title of every movie."]
        ) == 0
        capsys.readouterr()
        return log

    def test_summarizes_a_recorded_log(self, tmp_path, capsys):
        log = self._capture(tmp_path, capsys)
        code = main(["stats", "--from-log", str(log)])
        output = capsys.readouterr().out
        assert code == 0
        assert "queries: 1" in output
        assert "with answer digest: 1" in output
        assert "ok=1" in output
        assert "p50" in output

    def test_json_format_counts_corruption(self, tmp_path, capsys):
        import json

        log = tmp_path / "audit.jsonl"
        log.write_text(
            '{"sentence": "a", "status": "ok", "answer_digest": "ab", '
            '"total_seconds": 0.01}\n'
            "%%% not json %%%\n",
            encoding="utf-8",
        )
        code = main(["stats", "--from-log", str(log), "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["queries"] == 1
        assert payload["corrupt_skipped"] == 1
        assert payload["with_answer_digest"] == 1
        assert payload["statuses"] == {"ok": 1}

    def test_rotated_sibling_is_chained(self, tmp_path, capsys):
        import json

        log = tmp_path / "audit.jsonl"
        (tmp_path / "audit.jsonl.1").write_text(
            '{"sentence": "old", "status": "ok"}\n', encoding="utf-8"
        )
        log.write_text(
            '{"sentence": "new", "status": "ok"}\n', encoding="utf-8"
        )
        code = main(["stats", "--from-log", str(log), "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["queries"] == 2
        assert payload["files"] == 2

    def test_event_lines_are_counted_not_queried(self, tmp_path, capsys):
        import json

        log = tmp_path / "audit.jsonl"
        log.write_text(
            '{"event": "canary-drift", "tenant": "_canary"}\n'
            '{"sentence": "a", "status": "ok"}\n',
            encoding="utf-8",
        )
        code = main(["stats", "--from-log", str(log), "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["queries"] == 1
        assert payload["events"] == {"canary-drift": 1}

    def test_missing_file_exits_nonzero(self):
        with pytest.raises(SystemExit):
            main(["stats", "--from-log", "/nonexistent/audit.jsonl"])

    def test_unsupported_format_exits(self, tmp_path):
        log = tmp_path / "audit.jsonl"
        log.write_text("", encoding="utf-8")
        with pytest.raises(SystemExit):
            main(["stats", "--from-log", str(log), "--format", "prom"])


class TestReplayCommand:
    """``repro replay``: differential replay through the CLI."""

    def _capture(self, tmp_path, capsys):
        log = tmp_path / "audit.jsonl"
        assert main(
            ["query", "--data", "movies", "--audit-log", str(log),
             "Return the title of every movie."]
        ) == 0
        capsys.readouterr()
        return log

    def test_fresh_log_matches_and_exits_zero(self, tmp_path, capsys):
        log = self._capture(tmp_path, capsys)
        code = main(["replay", str(log), "--data", "movies"])
        output = capsys.readouterr().out
        assert code == 0
        assert "replay verdict: PASS" in output
        assert "1 pass" in output

    def test_mutated_digest_fails_with_github_annotation(
        self, tmp_path, capsys
    ):
        import json

        log = self._capture(tmp_path, capsys)
        record = json.loads(log.read_text(encoding="utf-8"))
        record["answer_digest"] = "0" * 16
        log.write_text(json.dumps(record) + "\n", encoding="utf-8")
        code = main(["replay", str(log), "--data", "movies", "--github"])
        output = capsys.readouterr().out
        assert code == 1
        assert "answer drift" in output
        assert "::error title=answer drift::" in output

    def test_json_report(self, tmp_path, capsys):
        import json

        log = self._capture(tmp_path, capsys)
        code = main(
            ["replay", str(log), "--data", "movies", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["fail"] == 0
        assert payload["rows"][0]["verdict"] == "pass"

    def test_missing_log_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit):
            main(["replay", "/nonexistent/audit.jsonl", "--data", "movies"])
