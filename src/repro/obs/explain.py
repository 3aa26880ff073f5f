"""The explain engine: render a query's provenance as a lineage report.

Given a finished ``QueryResult`` (duck-typed — this module imports
nothing from ``repro.core``), :func:`explain` builds an
:class:`Explanation` that renders the full word → token → clause story:

1. how every word was classified (Tables 1–2 rules);
2. what the validator found, with the Table 6 production per finding;
3. which tokens produced which XQuery clause (Fig. 4 direct mapping,
   Fig. 5 marker semantics, Fig. 6 nesting scopes);
4. the emitted FLWOR;
5. static-analysis findings from the qlint gate, when any fired
   (``repro.analysis``; a clean analysis renders nothing);
6. the executed plan with per-operator row counts, cache hits and wall
   times (``EXPLAIN ANALYZE`` style), read from the operator spans
   under each ``evaluator.run`` span of the query's trace;
7. per-stage wall times from the trace;
8. the memory account, when the query ran with tracking on: per-stage
   allocation deltas and the top-N allocation sites by retained size.

``render_text(timings=False)`` omits every wall-clock number, giving a
deterministic report — that is what the golden-file tests pin down.
``to_dict()`` is the JSON twin used by ``--json`` and the audit trail.
"""

from __future__ import annotations

import json

from repro.obs.audit import STAGES

#: Operator span attributes a plan line shows in fixed positions.
_PLAN_FIELDS = ("detail", "rows_in", "rows_out")


class Explanation:
    """A rendered view over one query's provenance, plan, and trace."""

    def __init__(self, result):
        self.result = result
        self.provenance = getattr(result, "provenance", None)
        self.trace = getattr(result, "trace", None)
        self.operators = _plan_roots(self.trace)
        self.memory = getattr(result, "memory", None)
        self.analysis = getattr(result, "analysis", None)

    # -- JSON ---------------------------------------------------------------

    def to_dict(self, timings=True):
        result = self.result
        entry = {
            "sentence": result.sentence,
            "status": getattr(result, "status", None),
            "xquery": getattr(result, "xquery_text", None),
        }
        if self.provenance is not None:
            entry["provenance"] = self.provenance.to_dict()
        if self.analysis is not None and self.analysis.findings:
            entry["analysis"] = self.analysis.to_dict()
        if self.operators:
            entry["plan"] = {
                "operators": [op.to_dict() for op in self.operators]
            }
            if self.trace.truncated:
                entry["plan"]["truncated"] = True
        if timings and self.trace is not None:
            entry["stage_seconds"] = {
                stage: seconds
                for stage in STAGES
                if (seconds := self.trace.stage_seconds(stage)) > 0.0
            }
            entry["total_seconds"] = self.trace.total_seconds()
        if self.memory is not None and self.memory.tracked:
            entry["memory"] = self.memory.to_dict()
        degradation = getattr(result, "degradation_path", None)
        if degradation:
            entry["degradation_path"] = list(degradation)
        return entry

    def to_json(self, timings=True, indent=2):
        return json.dumps(self.to_dict(timings=timings), indent=indent)

    # -- text ---------------------------------------------------------------

    def render_text(self, timings=True):
        sections = [self._header()]
        if self.provenance is not None and self.provenance.tokens:
            sections.append(self._token_section())
            if self.provenance.validations:
                sections.append(self._validation_section())
            if self.provenance.clauses:
                sections.append(self._lineage_section())
        xquery = self._xquery_section()
        if xquery:
            sections.append(xquery)
        # Only rendered when something fired: a clean analysis adds no
        # noise (and keeps the finding-free golden reports stable).
        if self.analysis is not None and self.analysis.findings:
            sections.append(self._analysis_section())
        if self.operators:
            sections.append(self._plan_section(timings))
        if timings and self.trace is not None:
            sections.append(self._timing_section())
        if self.memory is not None and self.memory.tracked:
            sections.append(self._memory_section())
        return "\n\n".join(sections)

    def _header(self):
        result = self.result
        lines = [f"EXPLAIN {result.sentence!r}"]
        status = getattr(result, "status", None)
        if status is not None:
            lines.append(f"status: {status}")
        degradation = getattr(result, "degradation_path", None)
        if degradation:
            lines.append(f"degradation path: {' -> '.join(degradation)}")
        return "\n".join(lines)

    def _token_section(self):
        lines = ["Token classification (Tables 1-2):"]
        for token in self.provenance.tokens:
            node_id = "?" if token.node_id is None else token.node_id
            line = (
                f"  ({node_id:>2}) {token.word:<22} "
                f"{token.token_type:<8} {token.rule}"
            )
            if token.detail:
                line += f"  [{token.detail}]"
            lines.append(line)
        return "\n".join(lines)

    def _validation_section(self):
        lines = ["Validator findings (Sec. 4 / Table 6):"]
        for record in self.provenance.validations:
            where = ""
            if record.word is not None:
                where = f' at "{record.word}"'
                if record.node_id is not None:
                    where += f" ({record.node_id})"
            lines.append(
                f"  {record.kind:<8} {record.code}{where}"
            )
            lines.append(f"           production: {record.production}")
        return "\n".join(lines)

    def _lineage_section(self):
        lines = ["Clause lineage (Figs. 4-6):"]
        for clause in self.provenance.clauses:
            lines.append(f"  {clause.clause:<9} {clause.fragment}")
            cited = ", ".join(
                f"{word}({node_id})"
                for word, node_id in zip(clause.words, clause.token_ids)
            )
            source = f"from {cited}" if cited else "from no source token"
            lines.append(f"           <- {source}  [{clause.pattern}]")
        return "\n".join(lines)

    def _xquery_section(self):
        translation = getattr(self.result, "translation", None)
        text = None
        if translation is not None:
            text = getattr(translation, "pretty_text", None)
        if text is None:
            text = getattr(self.result, "xquery_text", None)
        if not text:
            return None
        indented = "\n".join("  " + line for line in text.splitlines())
        return f"XQuery:\n{indented}"

    def _analysis_section(self):
        lines = ["Static analysis (qlint findings):"]
        for finding in self.analysis.findings:
            lines.append(
                f"  {finding.severity:<8} {finding.rule_id} "
                f"{finding.render()}"
            )
        return "\n".join(lines)

    def _plan_section(self, timings):
        lines = ["Plan (per-operator statistics):"]
        for root in self.operators:
            lines.extend(
                "  " + line for line in _operator_lines(root, timings=timings)
            )
        if self.trace.truncated:
            lines.append(
                "  ... operator tree truncated at "
                f"{self.trace.max_engine_spans} nodes"
            )
        return "\n".join(lines)

    def _memory_section(self):
        memory = self.memory
        lines = ["Memory (tracemalloc deltas + peak RSS):"]
        for stage in STAGES:
            stats = memory.stages.get(stage)
            if stats is None:
                continue
            lines.append(
                f"  {stage:<16}{stats['alloc_bytes'] / 1024.0:>10.1f} KiB "
                f"(peak {stats['peak_alloc_bytes'] / 1024.0:.1f} KiB)"
            )
        if memory.alloc_bytes is not None:
            lines.append(
                f"  {'query total':<16}"
                f"{memory.alloc_bytes / 1024.0:>10.1f} KiB "
                f"(peak {memory.peak_alloc_bytes / 1024.0:.1f} KiB)"
            )
        lines.append(
            f"  {'peak rss':<16}"
            f"{memory.peak_rss_bytes / (1024.0 * 1024.0):>10.1f} MiB"
        )
        if memory.top_sites:
            lines.append("  top allocation sites:")
            for site in memory.top_sites:
                lines.append(
                    f"    {site['size_bytes'] / 1024.0:>9.1f} KiB  "
                    f"{site['count']:>6}x  {site['site']}"
                )
        return "\n".join(lines)

    def _timing_section(self):
        lines = ["Stage timings:"]
        for stage in STAGES:
            seconds = self.trace.stage_seconds(stage)
            if seconds > 0.0:
                lines.append(f"  {stage:<16}{seconds * 1000:>9.2f} ms")
        lines.append(
            f"  {'total':<16}{self.trace.total_seconds() * 1000:>9.2f} ms"
        )
        return "\n".join(lines)

    def __repr__(self):
        return f"Explanation({self.result.sentence[:40]!r})"


def _plan_roots(trace):
    """The top operator spans of every ``evaluator.run`` in ``trace``."""
    if trace is None:
        return []
    return [
        operator
        for node in trace.iter_spans()
        if node.name == "evaluator.run"
        for operator in node.children
    ]


def _operator_lines(span, prefix="", last=True, top=True, timings=True):
    """One ``EXPLAIN ANALYZE``-style line per operator span, as a tree."""
    attributes = span.attributes
    parts = [span.name]
    if attributes.get("detail"):
        parts.append(attributes["detail"])
    rows_in = attributes.get("rows_in")
    rows_out = attributes.get("rows_out")
    if rows_in is not None and rows_out is not None:
        parts.append(f"rows={rows_in}→{rows_out}")
    elif rows_out is not None:
        parts.append(f"rows={rows_out}")
    parts.extend(
        f"{key}={value}"
        for key, value in attributes.items()
        if key not in _PLAN_FIELDS
    )
    if timings:
        parts.append(f"({span.duration_seconds * 1000:.2f} ms)")
    connector = "" if top else ("└─ " if last else "├─ ")
    lines = [prefix + connector + "  ".join(parts)]
    child_prefix = prefix if top else prefix + ("   " if last else "│  ")
    for index, child in enumerate(span.children):
        lines.extend(
            _operator_lines(
                child,
                prefix=child_prefix,
                last=index == len(span.children) - 1,
                top=False,
                timings=timings,
            )
        )
    return lines


def explain(result):
    """Build the :class:`Explanation` for a finished query result."""
    return Explanation(result)
