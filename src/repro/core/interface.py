"""The interactive NaLIX interface.

Wires the full pipeline of the paper's Sec. 3–4 together::

    parse -> classify -> validate (feedback on failure) -> translate ->
    analyze (the qlint gate; see repro.analysis) -> serialize to XQuery
    text -> evaluate on the database

``ask`` never raises on user-input problems: it returns a
:class:`QueryResult` that either carries results or carries the feedback
messages a user (or the simulated participants of the evaluation
harness) would see and react to.

Every ``ask`` call builds a :class:`repro.obs.spans.Trace` with one span
per pipeline stage and attaches it to ``QueryResult.trace``; the span
tree is the single source of truth for the result's per-stage
``*_seconds`` properties and for the ``pipeline.*`` metrics.

Resilience (see DESIGN.md "Resilience"): ``ask`` may carry a
:class:`repro.resilience.QueryBudget` (or a plain ``timeout``); the
engine checks it cooperatively and raises ``BudgetExceeded`` when a
query overruns. Failures on the evaluation path walk a graceful-
degradation ladder — planned FLWOR → naive FLWOR → bounded keyword
search over the query's name/value tokens — and a degraded answer is
visibly marked (``status == "degraded"``, a ``degraded-answer``
warning, per-hop spans and metrics), never silently wrong.  ``ask``
never raises: unexpected exceptions become ``internal-error`` feedback,
and every outcome carries an ``error_class`` from the
``REJECTED``/``DEGRADED``/``EXHAUSTED``/``INTERNAL`` taxonomy plus a
``retryable`` flag.
"""

from __future__ import annotations

import re

from repro.analysis import (
    analyze_query,
    attach_clause_provenance,
    ensure_pipeline_consistent,
)
from repro.analysis.racecheck import note_blocking
from repro.core.classifier import classify_tree
from repro.core.enums import COMMAND_PHRASES, parser_vocabulary
from repro.core.errors import TranslationError
from repro.core.feedback import Feedback
from repro.core.translator import Translator
from repro.core.token_types import TokenType, token_type
from repro.core.validator import Validator
from repro.keyword_search.engine import KeywordSearchEngine
from repro.nlp.dependency import DependencyParser
from repro.nlp.errors import ParseFailure
from repro.obs.answers import answer_digest
from repro.obs.export import LATENCIES
from repro.obs.memory import MemorySpec, MemoryTracker, current_memory_spec
from repro.obs.metrics import METRICS
from repro.obs.profiler import ProfileSpec, SamplingProfiler
from repro.obs.provenance import (
    QueryProvenance,
    token_records_from_tree,
    validation_records_from_feedback,
)
from repro.obs.spans import Span, Trace, activate_trace
from repro.ontology.expansion import TermExpander
from repro.resilience.budget import (
    BudgetExceeded,
    QueryBudget,
    activate_budget,
    check_deadline,
    deadline_share,
)
from repro.resilience.errors import (
    BrownoutDegraded,
    classify_codes,
    describe_failure,
    is_retryable,
)
from repro.resilience.faults import FaultPlan
from repro.xmlstore.model import Node
from repro.xquery.evaluator import Evaluator
from repro.xquery.parser import parse_xquery
from repro.xquery.values import string_value

_SENTENCE_SPLIT_RE = re.compile(r"[.!?]\s+")

# A contradictory lexicon/grammar/translator table is a programming
# error, not a user error: fail at import time, before any query can be
# mis-translated (see repro.analysis.consistency).
ensure_pipeline_consistent()

#: Error codes that mean the *system* failed on an accepted query, as
#: opposed to the query being rejected back to the user with feedback.
_FAILURE_CODES = frozenset({"translation-failure", "evaluation-failure",
                            "budget-exhausted", "internal-error",
                            "injected-fault", "invalid-query",
                            "brownout-degraded"})

#: Pipeline stage span names, in execution order.
_STAGES = ("parse", "classify", "validate", "translate", "analyze",
           "xquery-parse", "evaluate")

# Metrics resolved once: _record runs after every query, so it must not
# rebuild metric names per call.
_QUERIES = METRICS.counter("pipeline.queries")
_STATUS_COUNTERS = {
    status: METRICS.counter(f"pipeline.status.{status}")
    for status in ("ok", "degraded", "rejected", "failed")
}
#: Degradation-ladder hops, in fallback order.
_DEGRADATION_HOPS = ("naive-flwor", "keyword-search")
#: Share of the time left that the naive-FLWOR hop may use.  The rest is
#: kept for the keyword hop (milliseconds of work), which would
#: otherwise fail its first deadline check after a naive blow-up.
_NAIVE_HOP_DEADLINE_SHARE = 0.5
_DEGRADED_COUNTERS = {
    hop: METRICS.counter(f"resilience.degraded.{hop}")
    for hop in _DEGRADATION_HOPS
}
_DEGRADATION_EXHAUSTED = METRICS.counter("resilience.degraded.exhausted")
_STAGE_HISTOGRAMS = {
    stage: METRICS.histogram(f"pipeline.stage.{stage}.seconds")
    for stage in _STAGES
}
_STAGE_ERROR_COUNTERS = {
    stage: METRICS.counter(f"pipeline.stage.{stage}.errors")
    for stage in _STAGES
}
_ANALYSIS_FINDING_COUNTERS = {
    severity: METRICS.counter(f"analysis.findings.{severity}")
    for severity in ("error", "warning")
}
_ANALYSIS_REJECTED = METRICS.counter("analysis.gate.rejected")
_ANALYSIS_UNAVAILABLE = METRICS.counter("analysis.gate.unavailable")
_PEAK_RSS_GAUGE = METRICS.gauge("pipeline.memory.peak_rss_bytes")
_ALLOC_HISTOGRAM = METRICS.histogram("pipeline.memory.alloc_bytes")
_PROFILED_QUERIES = METRICS.counter("pipeline.profiled_queries")


class QueryResult:
    """Outcome of one natural-language query."""

    def __init__(self, sentence):
        self.sentence = sentence
        self.accepted = False       # passed validation & translated
        self.feedback = Feedback()
        self.parse_tree = None
        self.translation = None
        self.xquery_text = None
        self.items = []             # raw evaluation output
        self.analysis = None        # repro.analysis.AnalysisReport
        self.trace = None           # repro.obs.spans.Trace (plan included)
        self.provenance = None      # repro.obs.provenance.QueryProvenance
        self.profile = None         # repro.obs.profiler.SamplingProfiler
        self.memory = None          # repro.obs.memory.MemoryTracker
        self.budget = None          # the QueryBudget the query ran under
        self.degraded = False       # served by a fallback hop, not exactly
        self.degradation_path = []  # fallback hops attempted, in order
        self.pre_degrade = None     # brownout-requested fallback hop
        self.answer_digest = None   # canonical answer fingerprint, set by ask()

    @property
    def ok(self):
        return self.accepted

    @property
    def status(self):
        """Audit status: ``ok`` | ``degraded`` | ``rejected`` | ``failed``.

        ``degraded`` — an approximate answer was served by a fallback
        hop; ``rejected`` — the input was turned back with feedback
        before a query was produced (parse/validation stage);
        ``failed`` — a well-formed query died in translation or
        evaluation (including budget exhaustion).
        """
        if self.accepted:
            return "degraded" if self.degraded else "ok"
        if any(message.code in _FAILURE_CODES for message in self.errors):
            return "failed"
        return "rejected"

    @property
    def error_class(self):
        """Taxonomy class of the outcome (None for an exact success).

        One of ``rejected`` / ``degraded`` / ``exhausted`` /
        ``internal`` (see :mod:`repro.resilience.errors`).
        """
        if self.accepted:
            return "degraded" if self.degraded else None
        return classify_codes(message.code for message in self.errors)

    @property
    def retryable(self):
        """True when retrying (possibly with a larger budget) makes sense."""
        return is_retryable(self.error_class)

    @property
    def warnings(self):
        return self.feedback.warnings

    @property
    def errors(self):
        return self.feedback.errors

    # -- per-stage timings (derived from the trace) --------------------------

    def stage_seconds(self, name):
        """Wall time of the named pipeline stage (0.0 when it never ran)."""
        if self.trace is None:
            return 0.0
        return self.trace.stage_seconds(name)

    @property
    def parse_seconds(self):
        return self.stage_seconds("parse")

    @property
    def validation_seconds(self):
        return self.stage_seconds("classify") + self.stage_seconds("validate")

    @property
    def translation_seconds(self):
        return self.stage_seconds("translate")

    @property
    def evaluation_seconds(self):
        return self.stage_seconds("xquery-parse") + self.stage_seconds(
            "evaluate"
        )

    @property
    def total_seconds(self):
        return self.trace.total_seconds() if self.trace is not None else 0.0

    # -- results -------------------------------------------------------------

    def nodes(self):
        """Distinct result nodes, in document order of first appearance."""
        seen = set()
        result = []
        for item in self.items:
            if isinstance(item, Node) and id(item) not in seen:
                seen.add(id(item))
                result.append(item)
        return result

    def distinct_items(self):
        """Result items with duplicate nodes removed (atomics kept).

        Multi-variable binding tuples repeat the returned node once per
        combination; the interface presents each element once, and the
        study's precision/recall is computed over this presentation.
        """
        seen = set()
        result = []
        for item in self.items:
            if isinstance(item, Node):
                if id(item) not in seen:
                    seen.add(id(item))
                    result.append(item)
            else:
                result.append(item)
        return result

    def values(self):
        """String values of all result items (nodes deduplicated)."""
        atoms = [item for item in self.items if not isinstance(item, Node)]
        return [string_value(node) for node in self.nodes()] + [
            string_value(atom) for atom in atoms
        ]

    def render_feedback(self):
        return self.feedback.render()

    def __repr__(self):
        status = "ok" if self.ok else f"rejected({len(self.errors)} errors)"
        return f"QueryResult({self.sentence[:40]!r}..., {status})"


def _looks_multi_sentence(sentence):
    """True when the input holds several sentences (". Return ...").

    Conservative: a sentence boundary only counts when the next fragment
    opens with a command word, so abbreviations ("W. Stevens") and
    punctuation inside values never trigger it.
    """
    parts = [
        part.strip()
        for part in _SENTENCE_SPLIT_RE.split(sentence.strip())
        if part.strip()
    ]
    if len(parts) <= 1:
        return False
    return any(
        part.split()[0].lower() in COMMAND_PHRASES for part in parts[1:]
    )


class NaLIX:
    """A generic natural language interface to an XML database.

    Example::

        nalix = NaLIX(database)
        result = nalix.ask("Return the title of every book.")
        if result.ok:
            print(result.values())
        else:
            print(result.render_feedback())   # rephrasing suggestions

    ``audit_log`` (any object with a ``record(result)`` method, normally
    a :class:`repro.obs.audit.AuditLog`) receives every finished
    :class:`QueryResult`.

    Resilience knobs: ``budget`` is a default
    :class:`repro.resilience.QueryBudget` applied to every ``ask``
    (per-call ``budget=``/``timeout=`` override it); ``fault_plan`` is
    a :class:`repro.resilience.FaultPlan` (or anything
    ``FaultPlan.coerce`` accepts) whose faults fire inside the pipeline
    stages; ``degrade=False`` disables the fallback ladder, turning
    evaluation failures directly into errors.

    ``analysis_suppress`` is an iterable of qlint rule ids (see
    DESIGN.md §8) that the post-translation static-analysis gate must
    not report for this interface.
    """

    def __init__(self, database, document_name=None, thesaurus=None,
                 use_planner=True, wrap_results=False, audit_log=None,
                 budget=None, fault_plan=None, degrade=True,
                 analysis_suppress=()):
        self.database = database
        self.document_name = document_name or next(iter(database.documents), "doc")
        self.parser = DependencyParser(parser_vocabulary())
        self.expander = TermExpander(database, thesaurus=thesaurus)
        self.validator = Validator(database, self.expander)
        self.translator = Translator(
            database, self.document_name, wrap_results=wrap_results
        )
        self.evaluator = Evaluator(database, use_planner=use_planner)
        self.naive_evaluator = Evaluator(database, use_planner=False)
        self.keyword_engine = KeywordSearchEngine(database)
        self.audit_log = audit_log
        self.budget = budget
        self.fault_plan = FaultPlan.coerce(fault_plan)
        self.degrade = degrade
        self.analysis_suppress = tuple(analysis_suppress)

    # -- pipeline stages (each usable on its own for tests/benches) ------------------

    def parse(self, sentence):
        return self.parser.parse(sentence)

    def classify(self, tree):
        return classify_tree(tree)

    def validate(self, classified_tree):
        return self.validator.validate(classified_tree)

    def translate(self, validated_tree):
        return self.translator.translate(validated_tree)

    # -- the interactive entry point ------------------------------------------------------

    def ask(self, sentence, evaluate=True, budget=None, timeout=None,
            profile=None, memory=None, meter=None, pre_degrade=None):
        """Run the full pipeline; never raises.

        ``budget`` (a :class:`repro.resilience.QueryBudget`) bounds the
        query's work; ``timeout`` is a convenience that builds the
        default budget with the given wall-clock deadline in seconds.
        An explicit ``budget`` wins over ``timeout``; with neither, the
        interface-level default budget (if any) applies.  ``meter`` is a
        pre-started :class:`repro.resilience.BudgetMeter` that wins over
        all of them — the serving layer passes one so its stuck-query
        watchdog can force-expire a wedged evaluation from outside.

        ``pre_degrade`` (``"naive-flwor"`` or ``"keyword-search"``)
        skips the full-fidelity evaluation rungs and serves directly
        from the named fallback hop — the serving brownout ladder uses
        it to shed work without shedding requests.  The answer is
        classified ``degraded`` with a ``brownout-degraded`` cause, so
        lower fidelity is always visible to the caller.

        ``profile`` (``True``, an hz number, or a
        :class:`repro.obs.profiler.ProfileSpec`) samples this query's
        stack from a background thread and attaches the stopped
        profiler as ``result.profile``; ``memory`` (``True`` or a
        :class:`repro.obs.memory.MemorySpec`) accounts per-stage
        tracemalloc deltas and top allocation sites on
        ``result.memory``, and also honours the context-wide
        ``activate_memory_tracking``.  Both are exception-safe: the
        sampler thread is stopped and tracemalloc released on every
        path out of the query.
        """
        # A full query run blocks for up to the budget deadline; under
        # REPRO_RACECHECK=1 flag any caller that reaches it holding a
        # lock (no-op when racecheck is off).
        note_blocking("NaLIX.ask")
        result = QueryResult(sentence)
        trace = Trace()
        result.trace = trace
        result.provenance = QueryProvenance(sentence)
        memory_spec = (MemorySpec.coerce(memory)
                       if memory is not None and memory is not False
                       else current_memory_spec())
        tracker = MemoryTracker.from_spec(memory_spec)
        result.memory = tracker
        profiler = None
        if profile is not None and profile is not False:
            profiler = SamplingProfiler.from_spec(
                ProfileSpec.coerce(profile), trace=trace
            )
            result.profile = profiler
        if meter is not None:
            spec = meter.budget
        else:
            spec = budget
            if spec is None and timeout is not None:
                spec = QueryBudget.default(deadline_seconds=timeout)
            if spec is None:
                spec = self.budget
            meter = spec.start() if spec is not None else None
        result.budget = spec
        result.pre_degrade = pre_degrade
        try:
            tracker.start()
            if profiler is not None:
                profiler.start()
            with trace.span("ask") as root, activate_trace(trace), \
                    activate_budget(meter):
                try:
                    self._run_pipeline(sentence, evaluate, result, trace)
                except Exception as error:
                    # Faults and budget trips outside the evaluation
                    # stages, plus genuine bugs: classify, never crash.
                    result.accepted = False
                    self._note_failure(result, error)
                if not result.ok:
                    root.status = Span.ERROR
                root.set("status", result.status)
                if meter is not None:
                    for key, value in meter.snapshot().items():
                        root.set(f"budget.{key}", value)
        finally:
            if profiler is not None:
                profiler.stop()
            tracker.stop()
            trace.finish_open_spans()
            try:
                # The fingerprint covers the *presented* answer — the
                # same values() list /query returns — so the audit log,
                # flight recorder, canary, and replay all compare the
                # exact artifact a user would see.
                result.answer_digest = answer_digest(result.values())
            except Exception:
                result.answer_digest = None  # never let obs break ask()
            self._record(result)
        return result

    def _run_pipeline(self, sentence, evaluate, result, trace):
        if _looks_multi_sentence(sentence):
            # Multi-sentence queries are the paper's future work; reject
            # with guidance rather than silently mis-reading them.
            result.feedback.error(
                "multi-sentence",
                "The query contains more than one sentence.",
                suggestion="Ask one question at a time; NaLIX does not "
                "support multi-sentence queries yet.",
            )
            return

        memory = result.memory
        with trace.span("parse") as span, memory.stage(span):
            try:
                self._fire_fault("parse")
                check_deadline()
                tree = self.parse(sentence)
            except ParseFailure as failure:
                span.status = Span.ERROR
                result.feedback.error(
                    "parse-failure",
                    f"NaLIX could not parse the sentence: {failure}.",
                    suggestion="State the query as a single imperative "
                    'sentence, e.g. "Return the title of every book."',
                )
                return

        with trace.span("classify") as span, memory.stage(span):
            self._fire_fault("classify")
            self.classify(tree)
        result.parse_tree = tree

        with trace.span("validate") as span, memory.stage(span):
            self._fire_fault("validate")
            check_deadline()
            feedback = self.validate(tree)
            result.feedback = feedback
            # Token ids exist (and implicit NTs are inserted) only after
            # validation, so provenance is harvested here — for rejected
            # queries too, so explain can show why the grammar said no.
            result.provenance.tokens = token_records_from_tree(tree)
            result.provenance.validations = validation_records_from_feedback(
                feedback
            )
            if not feedback.ok:
                span.status = Span.ERROR
                span.set("errors", len(feedback.errors))
                return
            if feedback.warnings:
                span.set("warnings", len(feedback.warnings))

        with trace.span("translate") as span, memory.stage(span):
            try:
                self._fire_fault("translate")
                check_deadline()
                translation = self.translate(tree)
            except TranslationError as error:
                span.status = Span.ERROR
                result.feedback.error(
                    "translation-failure",
                    f"NaLIX could not map the query to XQuery: {error}.",
                    suggestion="Simplify the query, or split it into smaller "
                    "questions.",
                )
                return
        result.translation = translation
        result.xquery_text = translation.text
        result.provenance.clauses = list(translation.provenance)

        # The qlint gate: a malformed translation is a translator bug
        # and must never reach the evaluator (see DESIGN.md §8).
        with trace.span("analyze") as span, memory.stage(span):
            if not self._analyze(result, span):
                return
        result.accepted = True

        if evaluate:
            self._evaluate_with_degradation(result, trace)

    # -- the static-analysis gate --------------------------------------------

    def _analyze(self, result, span):
        """Run the qlint gate on the translated AST; True = proceed.

        Analyzer *errors* mean the translation is malformed (unbound
        variable, bad ``mqf`` call, …): the query is rejected with an
        ``invalid-query`` error — classified ``internal``, because the
        bug is ours, not the user's — and never reaches the evaluator.
        Analyzer *warnings* ride along as ``analysis-<RULE>`` feedback
        and the report is attached as ``result.analysis``.

        The gate fails open: if the analyzer itself crashes (including
        injected faults at the ``analyze`` stage), the query is served
        unchecked with an ``analysis-unavailable`` warning — static
        analysis must never take down query serving.  Budget trips are
        re-raised so they keep their ``exhausted`` classification.
        """
        try:
            self._fire_fault("analyze")
            check_deadline()
            report = analyze_query(
                result.translation.query, suppress=self.analysis_suppress
            )
            attach_clause_provenance(report, result.provenance.clauses)
        except BudgetExceeded:
            raise
        except Exception as error:
            span.status = Span.ERROR
            _ANALYSIS_UNAVAILABLE.inc()
            result.feedback.warning(
                "analysis-unavailable",
                f"Static analysis could not run "
                f"({type(error).__name__}: {error}); the query was "
                "served unchecked.",
            )
            return True
        result.analysis = report
        if report.findings:
            span.set("findings", len(report.findings))
        for finding in report.warnings:
            _ANALYSIS_FINDING_COUNTERS["warning"].inc()
            result.feedback.warning(
                f"analysis-{finding.rule_id}", finding.render()
            )
        if not report.errors:
            return True
        span.status = Span.ERROR
        span.set("errors", len(report.errors))
        _ANALYSIS_REJECTED.inc()
        for _ in report.errors:
            _ANALYSIS_FINDING_COUNTERS["error"].inc()
        details = "; ".join(
            finding.render() for finding in report.errors[:3]
        )
        result.feedback.error(
            "invalid-query",
            f"The translated query failed static analysis: {details}.",
            suggestion="This is a translator defect, not a problem with "
            "the question; please report the rule id(s) above, or "
            "rephrase the query to avoid the pattern.",
        )
        return False

    # -- evaluation and the graceful-degradation ladder ----------------------

    def _fire_fault(self, stage):
        if self.fault_plan is not None:
            self.fault_plan.fire(stage)

    def _evaluate_with_degradation(self, result, trace):
        """Evaluate the translated query, degrading instead of failing.

        The ladder: the configured evaluator (planned FLWOR by
        default), then naive FLWOR, then bounded keyword search over
        the query's name/value tokens. Each hop runs in its own span
        and counts a ``resilience.degraded.*`` metric; a degraded
        answer carries a ``degraded-answer`` warning so it is visibly
        approximate, never silently wrong.
        """
        memory = result.memory
        pre_degrade = result.pre_degrade
        if pre_degrade == "keyword-search" and self.degrade:
            # Brownout floor: skip FLWOR evaluation entirely (the
            # keyword rung needs no AST, so xquery-parse is skipped too).
            self._degrade_to_keyword(
                result, trace, BrownoutDegraded("keyword-search")
            )
            return
        try:
            # Re-parse the serialized text: the emitted query string is
            # the contract, exactly as NaLIX hands text to Timber.
            with trace.span("xquery-parse") as span, memory.stage(span):
                self._fire_fault("xquery-parse")
                expr = parse_xquery(result.xquery_text)
        except Exception as error:
            # Without an AST the FLWOR hops are unreachable; jump
            # straight to the keyword rung.
            if self.degrade:
                self._degrade_to_keyword(result, trace, error)
            else:
                result.accepted = False
                self._note_failure(result, error)
            return

        if pre_degrade == "naive-flwor" and self.degrade:
            # Brownout middle rung: skip the planned evaluator.
            primary = BrownoutDegraded("naive-flwor")
        else:
            try:
                with trace.span("evaluate") as span, memory.stage(span):
                    self._fire_fault("evaluate")
                    result.items = self.evaluator.run(expr)
                    span.set("items", len(result.items))
                return
            except Exception as error:
                primary = error
            if not self.degrade:
                result.accepted = False
                self._note_failure(result, primary)
                return

        if self.evaluator.use_planner:
            result.degradation_path.append("naive-flwor")
            try:
                check_deadline()
                with trace.span("evaluate-naive") as span, \
                        memory.stage(span), \
                        deadline_share(_NAIVE_HOP_DEADLINE_SHARE):
                    span.set("degraded_from", type(primary).__name__)
                    result.items = self.naive_evaluator.run(expr)
                    span.set("items", len(result.items))
                self._mark_degraded(result, "naive-flwor", primary)
                return
            except Exception:
                pass  # fall through to the keyword rung; report `primary`
        self._degrade_to_keyword(result, trace, primary)

    def _degrade_to_keyword(self, result, trace, primary):
        """Last rung: bounded keyword search over name/value tokens."""
        result.degradation_path.append("keyword-search")
        try:
            check_deadline()
            with trace.span("evaluate-keyword") as span, \
                    result.memory.stage(span):
                span.set("degraded_from", type(primary).__name__)
                terms = self._keyword_terms(result)
                span.set("terms", len(terms))
                result.items = (
                    self.keyword_engine.search(" ".join(terms))
                    if terms
                    else []
                )
                span.set("items", len(result.items))
            self._mark_degraded(result, "keyword-search", primary)
        except Exception:
            _DEGRADATION_EXHAUSTED.inc()
            result.items = []
            result.accepted = False
            self._note_failure(result, primary)

    def _keyword_terms(self, result):
        """The query's name/value tokens, for the keyword-search rung."""
        tree = result.parse_tree
        if tree is None:
            return self.keyword_engine.split_terms(result.sentence)
        terms = []
        for node in tree.preorder():
            if token_type(node) in (TokenType.NT, TokenType.VT):
                # Implicit NT insertions are rendered "[name]"; the
                # keyword index knows only the bare element name.
                text = node.text.strip("[]")
                terms.append(f'"{text}"' if node.quoted else text)
        return terms

    def _mark_degraded(self, result, hop, primary):
        result.degraded = True
        result.accepted = True
        _DEGRADED_COUNTERS[hop].inc()
        code, _, _ = describe_failure(primary)
        result.feedback.warning(
            "degraded-answer",
            f"The exact query could not be completed ({code}: {primary}); "
            f"showing approximate results from {hop}.",
            suggestion="Narrow the query or raise the budget/timeout to "
            "get an exact answer.",
        )

    def _note_failure(self, result, error):
        """Turn an evaluation-path exception into classified feedback."""
        code, text, suggestion = describe_failure(error)
        result.feedback.error(code, text, suggestion=suggestion)

    def _record(self, result):
        """Report one finished query to metrics and the audit log."""
        _QUERIES.inc()
        _STATUS_COUNTERS[result.status].inc()
        trace = result.trace
        if trace is not None and trace.roots:
            LATENCIES.observe("total", trace.total_seconds())
            for span in trace.roots[0].children:
                LATENCIES.observe(span.name, span.duration_seconds)
                histogram = _STAGE_HISTOGRAMS.get(span.name)
                if histogram is not None:
                    histogram.observe(span.duration_seconds)
                    if span.status == Span.ERROR:
                        _STAGE_ERROR_COUNTERS[span.name].inc()
        memory = result.memory
        if memory is not None:
            if memory.peak_rss_bytes:
                _PEAK_RSS_GAUGE.set(memory.peak_rss_bytes)
            if memory.alloc_bytes is not None:
                _ALLOC_HISTOGRAM.observe(float(memory.alloc_bytes))
        if result.profile is not None:
            _PROFILED_QUERIES.inc()
        for message in result.errors:
            METRICS.inc(f"pipeline.error.{message.code}")
        if self.audit_log is not None:
            self.audit_log.record(result)
