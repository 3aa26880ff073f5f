"""Conjunctive planner for FLWOR evaluation.

NaLIX-generated queries have a characteristic shape: a wide ``for``
clause over ``doc(...)//tag`` scans, with *all* selectivity expressed in
a conjunctive ``where`` — value predicates, comparisons, and ``mqf``
calls. Evaluating that naively means materialising a cross product of
every tag extent, which is hopeless on a 73k-node document.

The planner splits the ``where`` conjunction into:

* **single-variable predicates** — pushed into the candidate scan of the
  one ``for`` variable they constrain;
* **mqf groups** — evaluated with the anchor-based structural join of
  :mod:`repro.xquery.mqf` (candidates are the filtered sets, competitor
  populations the unfiltered scans, preserving naive semantics);
* **residual conjuncts** — everything else (cross-variable comparisons,
  predicates over ``let`` variables), applied per tuple afterwards.

The planner only claims FLWORs of the common shape (all ``for`` clauses
first, sources independent of one another); the evaluator falls back to
naive sequential semantics otherwise, and a naive mode is also kept for
the ablation benchmark.
"""

from __future__ import annotations

from repro.obs.metrics import METRICS
from repro.obs.spans import span
from repro.resilience.budget import charge, check_deadline
from repro.xquery import ast
from repro.xquery.errors import XQueryEvaluationError
from repro.xquery.mqf import CandidateSet, mqf_join
from repro.xquery.values import is_node

CROSS_PRODUCT_LIMIT = 10_000_000

_MQF_JOINS = METRICS.counter("planner.mqf.joins")
_MQF_CANDIDATES = METRICS.histogram("planner.mqf.candidates")
_MQF_TUPLES = METRICS.histogram("planner.mqf.tuples")


def free_variables(expr):
    """All variable names referenced by ``expr``, including inside nested
    FLWORs (no scoping analysis — used only as an over-approximation)."""
    names = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.VarRef):
            names.add(node.name)
        if isinstance(node, ast.Quantified):
            names.add(node.var)
        stack.extend(node.children())
    return names


def value_only_usage(expr, name):
    """True if every use of ``$name`` in ``expr`` is as a direct operand
    of a comparison.

    Such an expression's result depends on the variable only through its
    *atomized value*, which makes it safe to memoize by value — the key
    optimisation for the generated grouped-aggregate pattern, whose
    inner FLWOR references the outer core variable solely via
    ``$copy = $outer``. Conservative: any other occurrence (path start,
    function argument, return, mqf) disables the optimisation, as does a
    shadowing rebinding (its uses just look like unsafe ones).
    """
    if isinstance(expr, ast.VarRef):
        return expr.name != name
    if isinstance(expr, ast.Comparison):
        for side in (expr.left, expr.right):
            if isinstance(side, ast.VarRef) and side.name == name:
                continue
            if not value_only_usage(side, name):
                return False
        return True
    return all(value_only_usage(child, name) for child in expr.children())


def flatten_conjuncts(condition):
    """Flatten nested ``And`` nodes into a conjunct list."""
    if condition is None:
        return []
    if isinstance(condition, ast.And):
        conjuncts = []
        for item in condition.items:
            conjuncts.extend(flatten_conjuncts(item))
        return conjuncts
    return [condition]


def is_plannable(flwor):
    """Check the clause shape the planner handles.

    Requirements: at least one ``for`` clause, all ``for`` clauses before
    any ``let``, and **independent** binding sources — a source that
    references an earlier binding of the same FLWOR (``$a in
    $b//author``) needs the naive nested-loop semantics.
    """
    stage = 0  # 0: fors, 1: lets, 2: done
    seen_for = False
    for clause in flwor.clauses[:-1]:
        if isinstance(clause, ast.ForClause):
            if stage > 0:
                return False
            seen_for = True
        elif isinstance(clause, ast.LetClause):
            stage = max(stage, 1)
        elif isinstance(clause, (ast.WhereClause, ast.OrderByClause)):
            stage = 2
        else:
            return False
    if not seen_for:
        return False
    bound = set()
    for var, source in flwor.for_bindings():
        if free_variables(source) & bound:
            return False
        bound.add(var)
    return True


class _MqfGroup:
    """One mqf(...) conjunct scheduled as a structural join."""

    def __init__(self, variables):
        self.variables = variables


class Plan:
    """The decomposed for/where block of one FLWOR."""

    def __init__(self, for_vars):
        self.for_vars = for_vars
        self.single_var_predicates = {var: [] for var in for_vars}
        self.mqf_groups = []
        self.extra_mqf_conjuncts = []
        self.residual_conjuncts = []


def build_plan(flwor, let_vars, outer_vars):
    """Classify the where conjuncts of a plannable FLWOR.

    ``let_vars`` are the FLWOR's own let-bound names (conjuncts touching
    them must run after the lets); ``outer_vars`` the names already bound
    in the enclosing environment (those act as constants).
    """
    for_vars = [var for var, _ in flwor.for_bindings()]
    plan = Plan(for_vars)
    for_var_set = set(for_vars)
    let_var_set = set(let_vars)
    joined = set()

    for conjunct in flatten_conjuncts(flwor.where_condition()):
        referenced = free_variables(conjunct)
        local_for = referenced & for_var_set
        if referenced & let_var_set:
            plan.residual_conjuncts.append(conjunct)
            continue
        if _is_mqf_over(conjunct, for_var_set):
            variables = [arg.name for arg in conjunct.args]
            if joined & set(variables):
                # A variable already in another join group: apply this
                # mqf as a residual predicate on the joined tuples.
                plan.extra_mqf_conjuncts.append(conjunct)
            else:
                plan.mqf_groups.append(_MqfGroup(variables))
                joined |= set(variables)
            continue
        if len(local_for) == 1:
            plan.single_var_predicates[next(iter(local_for))].append(conjunct)
            continue
        plan.residual_conjuncts.append(conjunct)
    return plan


def _is_mqf_over(conjunct, for_var_set):
    return (
        isinstance(conjunct, ast.FunctionCall)
        and conjunct.name == "mqf"
        and len(conjunct.args) >= 1
        and all(isinstance(arg, ast.VarRef) for arg in conjunct.args)
        and all(arg.name in for_var_set for arg in conjunct.args)
    )


def enumerate_tuples(plan, candidates, populations):
    """Produce binding tuples (dict var -> node/item) for the for-block.

    ``candidates``: var -> filtered item list. ``populations``: var ->
    unfiltered item list. Items need not be nodes unless they take part
    in an mqf group.
    """
    streams = []  # each: (vars, list of tuples)
    grouped = set()
    for group in plan.mqf_groups:
        for var in group.variables:
            if not all(is_node(item) for item in populations[var]):
                raise XQueryEvaluationError(
                    f"mqf argument ${var} must range over nodes"
                )
        with span(
            "mqf-join",
            detail=", ".join(f"${var}" for var in group.variables),
        ) as op:
            tuples = mqf_join(
                [candidates[var] for var in group.variables],
                [populations[var] for var in group.variables],
            )
            op.set(
                "rows_in", sum(len(candidates[var]) for var in group.variables)
            )
            op.set("rows_out", len(tuples))
            op.set(
                "population",
                sum(len(populations[var]) for var in group.variables),
            )
        _MQF_JOINS.inc()
        _MQF_CANDIDATES.observe(
            sum(len(candidates[var]) for var in group.variables)
        )
        _MQF_TUPLES.observe(len(tuples))
        streams.append((group.variables, tuples))
        grouped |= set(group.variables)
    for var in plan.for_vars:
        if var not in grouped:
            streams.append(([var], [(item,) for item in candidates[var]]))

    total = 1
    for _, tuples in streams:
        total *= max(len(tuples), 0)
        if total > CROSS_PRODUCT_LIMIT:
            raise XQueryEvaluationError(
                "query would materialise too large a cross product; "
                "add conditions relating the query's variables"
            )

    combined = [{}]
    for variables, tuples in streams:
        check_deadline()
        extended = []
        for bindings in combined:
            for row in tuples:
                merged = dict(bindings)
                merged.update(zip(variables, row))
                extended.append(merged)
        charge("candidate_tuples", len(extended))
        combined = extended
        if not combined:
            break

    if plan.extra_mqf_conjuncts:
        population_sets = {
            var: CandidateSet(populations[var]) for var in plan.for_vars
        }
        combined = [
            bindings
            for bindings in combined
            if _extra_mqf_holds(plan, bindings, population_sets)
        ]
    return combined


def _extra_mqf_holds(plan, bindings, population_sets):
    from repro.xquery.mqf import meaningfully_related

    for conjunct in plan.extra_mqf_conjuncts:
        names = [arg.name for arg in conjunct.args]
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                if not meaningfully_related(
                    bindings[names[i]],
                    bindings[names[j]],
                    population_sets[names[i]],
                    population_sets[names[j]],
                ):
                    return False
    return True
