"""Evaluation of the XQuery AST against a :class:`repro.database.Database`.

Two evaluation paths exist for FLWOR expressions:

* the **planned** path (default) — the conjunctive planner of
  :mod:`repro.xquery.plan` pushes predicates into scans and turns ``mqf``
  calls into structural joins;
* the **naive** path (``Evaluator(db, use_planner=False)``) — direct
  nested-loop semantics, kept both as the semantic reference for tests
  and for the ablation benchmark.

Both paths implement identical semantics; the property-based tests
compare them on random small documents.
"""

from __future__ import annotations

from time import perf_counter

from repro.obs.metrics import METRICS
from repro.obs.spans import span
from repro.resilience.budget import charge, check_deadline
from repro.xmlstore.model import AttributeNode, ElementNode, TextNode
from repro.xquery import ast
from repro.xquery.errors import XQueryEvaluationError
from repro.xquery.functions import call_builtin
from repro.xquery.mqf import CandidateSet, mqf_predicate
from repro.xquery.parser import parse_xquery
from repro.xquery.plan import build_plan, enumerate_tuples, is_plannable
from repro.xquery.values import (
    atomize,
    effective_boolean_value,
    general_compare,
    is_node,
    sort_key,
)

_FLWOR_PLANNED = METRICS.counter("evaluator.flwor.planned")
_FLWOR_NAIVE = METRICS.counter("evaluator.flwor.naive")
_LET_CACHE_HITS = METRICS.counter("evaluator.let_cache.hits")
_LET_CACHE_MISSES = METRICS.counter("evaluator.let_cache.misses")
_CANDIDATES = METRICS.histogram("planner.candidates_per_variable")
_MISSING = object()


class Environment:
    """Variable bindings plus the candidate populations mqf judges against."""

    def __init__(self, values=None, populations=None):
        self.values = values or {}
        self.populations = populations or {}

    def child(self, new_values, new_populations=None):
        values = dict(self.values)
        values.update(new_values)
        populations = dict(self.populations)
        if new_populations:
            populations.update(new_populations)
        return Environment(values, populations)

    def lookup(self, name):
        if name not in self.values:
            raise XQueryEvaluationError(f"unbound variable ${name}")
        return self.values[name]

    def population(self, name):
        return self.populations.get(name)

    def names(self):
        return set(self.values)


class Evaluator:
    """Evaluates expressions against one database."""

    def __init__(self, database, use_planner=True):
        self.database = database
        self.use_planner = use_planner

    # -- public API ---------------------------------------------------------

    def run(self, query, env=None):
        """Evaluate query text or an AST; returns a sequence (list).

        Runs inside an ``evaluator.run`` span (a no-op without an
        active trace); the ``with`` block guarantees the span is
        finished even when evaluation raises, so traces of failed
        queries stay complete.
        """
        expr = parse_xquery(query) if isinstance(query, str) else query
        with span("evaluator.run", planner=self.use_planner) as current:
            items = self.evaluate(expr, env or Environment())
            current.set("items", len(items))
        return items

    # -- dispatch -------------------------------------------------------------

    def evaluate(self, expr, env):
        if isinstance(expr, ast.Literal):
            return [expr.value]
        if isinstance(expr, ast.VarRef):
            return list(env.lookup(expr.name))
        if isinstance(expr, ast.DocSource):
            return [self._document(expr.name).root]
        if isinstance(expr, ast.PathExpr):
            return self._eval_path(expr, env)
        if isinstance(expr, ast.Sequence):
            result = []
            for item in expr.items:
                result.extend(self.evaluate(item, env))
            return result
        if isinstance(expr, ast.Comparison):
            left = self.evaluate(expr.left, env)
            right = self.evaluate(expr.right, env)
            return [general_compare(expr.op, left, right)]
        if isinstance(expr, ast.And):
            for item in expr.items:
                if not effective_boolean_value(self.evaluate(item, env)):
                    return [False]
            return [True]
        if isinstance(expr, ast.Or):
            for item in expr.items:
                if effective_boolean_value(self.evaluate(item, env)):
                    return [True]
            return [False]
        if isinstance(expr, ast.Not):
            return [not effective_boolean_value(self.evaluate(expr.operand, env))]
        if isinstance(expr, ast.FunctionCall):
            return self._eval_function(expr, env)
        if isinstance(expr, ast.Quantified):
            return self._eval_quantified(expr, env)
        if isinstance(expr, ast.FLWOR):
            return self._eval_flwor(expr, env)
        if isinstance(expr, ast.ElementConstructor):
            return [self._construct_element(expr, env)]
        raise XQueryEvaluationError(f"cannot evaluate {type(expr).__name__}")

    # -- documents and paths ------------------------------------------------

    def _document(self, name):
        try:
            return self.database.document(name)
        except KeyError:
            if len(self.database.documents) == 1:
                return self.database.document()
            raise XQueryEvaluationError(f"unknown document {name!r}")

    def _eval_path(self, expr, env):
        steps = expr.steps
        if isinstance(expr.start, ast.DocSource):
            document = self._document(expr.start.name)
            if steps and steps[0].axis == ast.Step.DESCENDANT:
                nodes = self._scan_document(document, steps[0])
                return self._apply_steps(nodes, steps[1:])
            if steps and steps[0].axis == ast.Step.CHILD:
                tags = steps[0].matches_tags()
                roots = (
                    [document.root]
                    if tags is None or document.root.tag in tags
                    else []
                )
                return self._apply_steps(roots, steps[1:])
            return self._apply_steps([document.root], steps)
        nodes = self.evaluate(expr.start, env)
        return self._apply_steps(nodes, steps)

    def _scan_document(self, document, step):
        """Index-backed ``doc(...)//test`` scan (includes the root)."""
        tags = step.matches_tags()
        if tags is None:
            return list(document.iter_elements())
        single_document = len(self.database.documents) == 1
        nodes = []
        for tag in tags:
            for node in self.database.nodes_with_tag(tag):
                if single_document or node.root() is document.root:
                    nodes.append(node)
        nodes.sort(key=lambda node: node.node_id)
        charge("materialized_nodes", len(nodes))
        return nodes

    def _apply_steps(self, nodes, steps):
        current = nodes
        for step in steps:
            current = self._apply_step(current, step)
        return current

    def _apply_step(self, nodes, step):
        result = []
        seen = set()

        def emit(node):
            if id(node) not in seen:
                seen.add(id(node))
                result.append(node)

        tags = step.matches_tags()
        for node in nodes:
            if not isinstance(node, ElementNode):
                continue
            if step.axis == ast.Step.CHILD:
                for child in node.children:
                    if isinstance(child, ElementNode) and (
                        tags is None or child.tag in tags
                    ):
                        emit(child)
                if tags is not None:
                    for attribute in node.attributes:
                        if attribute.tag in tags:
                            emit(attribute)
            elif step.axis == ast.Step.DESCENDANT:
                for descendant in node.iter_descendants():
                    if isinstance(descendant, ElementNode):
                        if tags is None or descendant.tag in tags:
                            emit(descendant)
                    elif isinstance(descendant, AttributeNode):
                        if tags is not None and descendant.tag in tags:
                            emit(descendant)
            elif step.axis == ast.Step.ATTRIBUTE:
                for attribute in node.attributes:
                    if step.test == "*" or attribute.name in step.test.split("|"):
                        emit(attribute)
            elif step.axis == ast.Step.TEXT:
                for child in node.children:
                    if isinstance(child, TextNode):
                        emit(child)
        result.sort(key=lambda node: node.node_id)
        charge("materialized_nodes", len(result))
        return result

    # -- functions and quantifiers -----------------------------------------

    def _eval_function(self, expr, env):
        if expr.name == "mqf":
            return [self._eval_mqf_predicate(expr, env)]
        arguments = [self.evaluate(arg, env) for arg in expr.args]
        return call_builtin(expr.name, arguments)

    def _eval_mqf_predicate(self, expr, env):
        """mqf(...) outside the planner: judge the currently-bound nodes."""
        bound = []
        populations = []
        for arg in expr.args:
            if not isinstance(arg, ast.VarRef):
                raise XQueryEvaluationError("mqf() arguments must be variables")
            sequence = env.lookup(arg.name)
            if len(sequence) != 1 or not is_node(sequence[0]):
                # Unrelatable binding (empty or non-node): not meaningful.
                return False
            node = sequence[0]
            population = env.population(arg.name)
            if population is None:
                population = CandidateSet([node])
            bound.append(node)
            populations.append(population)
        return mqf_predicate(bound, populations)

    def _eval_quantified(self, expr, env):
        source = self.evaluate(expr.source, env)
        population = CandidateSet([item for item in source if is_node(item)])
        for item in source:
            child = env.child({expr.var: [item]}, {expr.var: population})
            holds = effective_boolean_value(self.evaluate(expr.condition, child))
            if expr.kind == "some" and holds:
                return [True]
            if expr.kind == "every" and not holds:
                return [False]
        return [expr.kind == "every"]

    # -- FLWOR ---------------------------------------------------------------

    def _eval_flwor(self, flwor, env):
        check_deadline()
        if self.use_planner and is_plannable(flwor):
            _FLWOR_PLANNED.inc()
            return self._eval_flwor_planned(flwor, env)
        _FLWOR_NAIVE.inc()
        return self._eval_flwor_naive(flwor, env)

    def _eval_flwor_naive(self, flwor, env):
        with span("flwor", detail="naive") as op:
            result = self._eval_flwor_naive_inner(flwor, env)
            op.set("rows_out", len(result))
        return result

    def _eval_flwor_naive_inner(self, flwor, env):
        stream = [env]
        pending_order = None
        for clause in flwor.clauses[:-1]:
            if isinstance(clause, ast.ForClause):
                for var, source in clause.bindings:
                    expanded = []
                    for current in stream:
                        items = self.evaluate(source, current)
                        charge("flwor_iterations", len(items))
                        population = CandidateSet(
                            [item for item in items if is_node(item)]
                        )
                        for item in items:
                            expanded.append(
                                current.child({var: [item]}, {var: population})
                            )
                    stream = expanded
            elif isinstance(clause, ast.LetClause):
                stream = [
                    current.child({clause.var: self.evaluate(clause.expr, current)})
                    for current in stream
                ]
            elif isinstance(clause, ast.WhereClause):
                stream = [
                    current
                    for current in stream
                    if effective_boolean_value(
                        self.evaluate(clause.condition, current)
                    )
                ]
            elif isinstance(clause, ast.OrderByClause):
                pending_order = clause
        if pending_order is not None:
            stream = self._order_stream(stream, pending_order)
        result = []
        return_expr = flwor.return_expr()
        for current in stream:
            result.extend(self.evaluate(return_expr, current))
        return result

    def _eval_flwor_planned(self, flwor, env):
        with span("flwor", detail="planned") as flwor_op:
            result = self._eval_flwor_planned_inner(flwor, env)
            flwor_op.set("rows_out", len(result))
        return result

    def _eval_flwor_planned_inner(self, flwor, env):
        let_clauses = [
            clause for clause in flwor.clauses if isinstance(clause, ast.LetClause)
        ]
        let_vars = [clause.var for clause in let_clauses]
        plan = build_plan(flwor, let_vars, env.names())
        let_cache_plans = self._plan_let_caching(let_clauses, plan)

        candidates = {}
        populations = {}
        for var, source in flwor.for_bindings():
            with span("scan", detail=f"${var}") as op:
                items = self.evaluate(source, env)
                op.set("rows_in", len(items))
                populations[var] = items
                filtered = items
                for predicate in plan.single_var_predicates[var]:
                    population = CandidateSet(
                        [item for item in items if is_node(item)]
                    )
                    filtered = [
                        item
                        for item in filtered
                        if effective_boolean_value(
                            self.evaluate(
                                predicate,
                                env.child({var: [item]}, {var: population}),
                            )
                        )
                    ]
                candidates[var] = filtered
                op.set("rows_out", len(filtered))
                if plan.single_var_predicates[var]:
                    op.set(
                        "pushed_predicates",
                        len(plan.single_var_predicates[var]),
                    )
            _CANDIDATES.observe(len(filtered))

        tuples = enumerate_tuples(plan, candidates, populations)
        charge("flwor_iterations", len(tuples))
        population_sets = {
            var: CandidateSet([item for item in populations[var] if is_node(item)])
            for var in plan.for_vars
        }

        # Let and residual-filter work is interleaved per tuple, so their
        # spans are closed here, keeping their place in the tree, and
        # report the time accumulated across the loop afterwards.
        let_ops = []
        for clause in let_clauses:
            with span("let", detail=f"${clause.var}") as op:
                pass
            let_ops.append(op)
        with span("filter", detail="residual predicates") as filter_op:
            pass
        let_hits = [0] * len(let_clauses)
        let_misses = [0] * len(let_clauses)
        let_seconds = [0.0] * len(let_clauses)
        filter_seconds = 0.0

        let_caches = [{} for _ in let_clauses]
        stream = []
        for bindings in tuples:
            current = env.child(
                {var: [item] for var, item in bindings.items()},
                {var: population_sets[var] for var in bindings},
            )
            for index, clause in enumerate(let_clauses):
                started = perf_counter()
                key_vars = let_cache_plans[index]
                if key_vars is not None:
                    key = tuple(
                        atomize(current.lookup(name)[0])
                        if current.lookup(name)
                        else None
                        for name in key_vars
                    )
                    cache = let_caches[index]
                    value = cache.get(key, _MISSING)
                    if value is _MISSING:
                        _LET_CACHE_MISSES.inc()
                        let_misses[index] += 1
                        value = cache[key] = self.evaluate(clause.expr, current)
                    else:
                        _LET_CACHE_HITS.inc()
                        let_hits[index] += 1
                else:
                    let_misses[index] += 1
                    value = self.evaluate(clause.expr, current)
                current = current.child({clause.var: value})
                let_seconds[index] += perf_counter() - started
            started = perf_counter()
            kept = all(
                effective_boolean_value(self.evaluate(conjunct, current))
                for conjunct in plan.residual_conjuncts
            )
            filter_seconds += perf_counter() - started
            if kept:
                stream.append(current)

        for index, let_op in enumerate(let_ops):
            let_op.set_duration(let_seconds[index])
            let_op.set("rows_in", len(tuples))
            let_op.set("rows_out", let_misses[index])
            let_op.set("cache_hits", let_hits[index])
            let_op.set("cached", let_cache_plans[index] is not None)
        filter_op.set_duration(filter_seconds)
        filter_op.set("rows_in", len(tuples))
        filter_op.set("rows_out", len(stream))
        filter_op.set("predicates", len(plan.residual_conjuncts))

        for clause in flwor.clauses:
            if isinstance(clause, ast.OrderByClause):
                with span("order-by") as op:
                    op.set("rows_in", len(stream))
                    op.set("rows_out", len(stream))
                    stream = self._order_stream(stream, clause)
        result = []
        return_expr = flwor.return_expr()
        with span("return") as op:
            op.set("rows_in", len(stream))
            for current in stream:
                result.extend(self.evaluate(return_expr, current))
            op.set("rows_out", len(result))
        return result

    def _plan_let_caching(self, let_clauses, plan):
        """Per-let memoization plans.

        A let whose expression touches the FLWOR's tuple variables only
        through comparisons (``$copy = $outer``) can be cached by the
        *values* of those variables — turning the generated grouped
        aggregates from one inner evaluation per binding into one per
        distinct group value. Returns, per let clause, the sorted key
        variable list, or None when caching is unsafe.
        """
        from repro.xquery.plan import free_variables, value_only_usage

        plans = []
        earlier_lets = set()
        for clause in let_clauses:
            free = free_variables(clause.expr)
            if free & earlier_lets:
                plans.append(None)
            else:
                key_vars = sorted(set(plan.for_vars) & free)
                if all(
                    value_only_usage(clause.expr, name) for name in key_vars
                ):
                    plans.append(key_vars)
                else:
                    plans.append(None)
            earlier_lets.add(clause.var)
        return plans

    def _order_stream(self, stream, clause):
        def key(current):
            return tuple(
                _directional_key(sort_key(self.evaluate(expr, current)), descending)
                for expr, descending in clause.keys
            )

        return sorted(stream, key=key)

    # -- construction ----------------------------------------------------------

    def _construct_element(self, expr, env):
        element = ElementNode(expr.tag)
        for item_expr in expr.content_items:
            for item in self.evaluate(item_expr, env):
                if isinstance(item, ElementNode):
                    element.append(_copy_subtree(item))
                elif isinstance(item, AttributeNode):
                    element.set_attribute(item.name, item.value)
                elif isinstance(item, TextNode):
                    element.append(TextNode(item.text))
                else:
                    from repro.xquery.values import string_value

                    element.append(TextNode(string_value(item)))
        return element


class _ReverseKey:
    """Inverts sort order for 'descending' keys of mixed types."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __lt__(self, other):
        return other.key < self.key

    def __eq__(self, other):
        return other.key == self.key


def _directional_key(key, descending):
    return _ReverseKey(key) if descending else key


def _copy_subtree(element):
    copy = ElementNode(element.tag)
    for attribute in element.attributes:
        copy.set_attribute(attribute.name, attribute.value)
    for child in element.children:
        if isinstance(child, ElementNode):
            copy.append(_copy_subtree(child))
        else:
            copy.append(TextNode(child.text))
    return copy


def evaluate_query(database, query, use_planner=True):
    """Convenience wrapper: evaluate ``query`` (text or AST) on ``database``."""
    return Evaluator(database, use_planner=use_planner).run(query)
