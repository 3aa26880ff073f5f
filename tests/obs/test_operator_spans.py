"""Plan operators as engine spans of the query's one trace.

The evaluator and planner open one span per operator (flwor, scan,
mqf-join, let, filter, order-by, return) through the ambient
``repro.obs.spans.span`` helper; the explain report renders its plan
section from those spans.
"""

import json
from types import SimpleNamespace

import pytest

from repro.obs.explain import explain
from repro.obs.spans import Trace, activate_trace, current_trace, span
from repro.xquery.errors import XQueryEvaluationError


def _result_with_plan(trace):
    """The duck-typed slice of a QueryResult that explain() reads."""
    return SimpleNamespace(sentence="q", status="ok", trace=trace)


def _join_plan(trace):
    """evaluator.run -> mqf-join -> scan, as the engine would open it."""
    with activate_trace(trace):
        with span("evaluator.run"):
            with span("mqf-join", detail="$v1, $v2") as join:
                with span("scan") as scan:
                    scan.set("rows_out", 12)
                join.set("rows_in", 12)
                join.set("rows_out", 3)
                join.set("population", 2)


class TestOperatorSpans:
    def test_nesting_and_rows(self):
        trace = Trace()
        with activate_trace(trace):
            with span("flwor", detail="planned") as flwor:
                with span("scan", detail="$v1") as scan:
                    scan.set("rows_in", 10)
                    scan.set("rows_out", 4)
                flwor.set("rows_out", 4)
        assert [root.name for root in trace.roots] == ["flwor"]
        assert trace.roots[0].children[0].attributes["rows_in"] == 10
        assert trace.find("scan").attributes["detail"] == "$v1"

    def test_set_duration_reports_time_accumulated_across_loop(self):
        """The let-cache pattern: closed once, then given the loop's sum."""
        trace = Trace()
        with activate_trace(trace):
            with span("let") as let_op:
                pass
        assert let_op.duration_seconds >= 0.0
        let_op.set_duration(0.25)
        assert let_op.duration_seconds == pytest.approx(0.25)
        assert let_op.ended_at is not None

    def test_exit_closes_abandoned_children(self):
        trace = Trace()
        with activate_trace(trace):
            outer = span("outer")
            inner = span("inner")  # never explicitly closed
            outer.__exit__(None, None, None)
        assert trace._stack == []
        assert inner.ended_at is not None

    def test_render_and_to_dict(self):
        trace = Trace()
        _join_plan(trace)
        explanation = explain(_result_with_plan(trace))
        text = explanation.render_text(timings=False)
        assert "mqf-join  $v1, $v2  rows=12→3  population=2" in text
        assert "└─ scan  rows=12" in text
        assert "ms" not in text
        (entry,) = explanation.to_dict(timings=False)["plan"]["operators"]
        assert entry["name"] == "mqf-join"
        assert entry["attributes"] == {
            "detail": "$v1, $v2", "rows_in": 12, "rows_out": 3,
            "population": 2,
        }
        assert entry["children"][0]["name"] == "scan"
        json.dumps(entry)  # must be JSON-serializable

    def test_render_includes_timings_by_default(self):
        trace = Trace()
        _join_plan(trace)
        text = explain(_result_with_plan(trace)).render_text()
        assert "population=2  (" in text
        assert "ms)" in text


class TestAmbientHelper:
    def test_noop_outside_active_trace(self):
        assert current_trace() is None
        with span("scan") as op:
            op.set("rows_in", 5)
            op.set_duration(1.0)
        assert op.attributes == {}
        assert op.duration_seconds == 0.0

    def test_activation_scopes_the_trace(self):
        trace = Trace()
        with activate_trace(trace):
            assert current_trace() is trace
            with span("scan") as op:
                op.set("rows_out", 1)
        assert current_trace() is None
        assert trace.roots[0] is op

    def test_truncation_is_visible(self):
        trace = Trace()
        trace.max_engine_spans = 2
        with activate_trace(trace):
            for _ in range(4):
                with span("scan"):
                    pass
        assert trace.truncated
        assert len(trace.roots) == 2
        assert trace.to_dict()["truncated"] is True
        assert "truncated at 2" in trace.render()

    def test_truncation_is_visible_in_the_plan(self):
        trace = Trace()
        trace.max_engine_spans = 2
        _join_plan(trace)  # the scan is the third engine span
        explanation = explain(_result_with_plan(trace))
        assert "operator tree truncated at 2 nodes" in (
            explanation.render_text(timings=False)
        )
        assert explanation.to_dict()["plan"]["truncated"] is True

    def test_not_truncated_by_default(self):
        trace = Trace()
        with activate_trace(trace):
            with span("scan"):
                pass
        assert "truncated" not in trace.to_dict()
        assert "truncated" not in trace.render()

    def test_stage_spans_never_count_against_the_cap(self):
        trace = Trace()
        trace.max_engine_spans = 1
        with activate_trace(trace):
            with trace.span("evaluate"):
                with span("evaluator.run"):
                    with span("flwor"):
                        pass
            with trace.span("evaluate-naive"):
                pass
        assert trace.truncated
        assert trace.find("flwor") is None
        assert [root.name for root in trace.roots] == [
            "evaluate", "evaluate-naive",
        ]


class TestPipelineIntegration:
    def test_ask_records_operator_spans(self, movie_nalix):
        result = movie_nalix.ask(
            "Return every movie where its year is after 1994."
        )
        assert result.ok
        operators = explain(result).operators
        assert operators
        names = {
            node.name for root in operators for node in root.iter_spans()
        }
        assert {"flwor", "scan", "return"} <= names
        flwor = result.trace.find("flwor")
        assert flwor.attributes["detail"] in ("planned", "naive")
        scan = result.trace.find("scan").attributes
        assert scan["rows_in"] is not None
        assert scan["rows_in"] >= scan["rows_out"]
        ret = result.trace.find("return")
        assert ret.attributes["rows_out"] == len(result.items)

    def test_structural_join_cardinalities(self, movie_nalix):
        result = movie_nalix.ask(
            "Return the title of every movie whose director is Ron Howard."
        )
        assert result.ok
        # The join is a span of the evaluate stage itself, so Perfetto
        # and the flight recorder see it where it ran.
        join = result.trace.find("evaluate").find("mqf-join")
        assert join is not None
        assert join.attributes["rows_in"] >= join.attributes["rows_out"]
        assert join.attributes.get("population", 0) >= 1

    def test_let_cache_hits_surface(self, movie_nalix):
        result = movie_nalix.ask(
            "Return every director, where the number of movies directed "
            "by the director is the same as the number of movies directed "
            "by Ron Howard."
        )
        assert result.ok
        flwor = result.trace.find("flwor")
        lets = [op for op in flwor.children if op.name == "let"]
        assert lets, "aggregate query should evaluate let clauses"
        assert any(op.attributes.get("cache_hits", 0) > 0 for op in lets)
        for op in lets:
            # Time accumulated inside the flwor cannot exceed it.
            assert 0.0 <= op.duration_seconds <= flwor.duration_seconds

    def test_failed_parse_leaves_no_plan(self, movie_nalix):
        result = movie_nalix.ask("")
        assert not result.ok
        explanation = explain(result)
        assert explanation.operators == []
        assert "plan" not in explanation.to_dict()
        assert "Plan (" not in explanation.render_text()

    def test_truncated_trace_keeps_the_naive_stage_span(
        self, movie_nalix, monkeypatch
    ):
        """A planned rung that floods the cap cannot hide the next rung."""

        def flood_then_fail(expr):
            for _ in range(Trace.MAX_ENGINE_SPANS + 10):
                with span("flwor", detail="planned"):
                    pass
            raise XQueryEvaluationError("planned path down")

        monkeypatch.setattr(movie_nalix.evaluator, "run", flood_then_fail)
        result = movie_nalix.ask("Return the title of every movie.")
        assert result.status == "degraded"
        assert result.degradation_path == ["naive-flwor"]
        assert result.trace.truncated
        naive = result.trace.find("evaluate-naive")
        assert naive is not None
        assert naive.ended_at is not None
        assert result.stage_seconds("evaluate-naive") > 0.0
