"""Query budgets: cooperative resource limits checked at loop boundaries.

A :class:`QueryBudget` is an immutable *specification* of how much work
one query may do; :meth:`QueryBudget.start` produces a
:class:`BudgetMeter` that tracks spending against it.  The meter is made
available to deep engine code through a context variable (mirroring
``repro.obs.spans``): ``NaLIX.ask`` activates it, and the evaluator /
MQF join / planner / keyword engine call the module-level
:func:`charge` and :func:`check_deadline` helpers at their loop
boundaries.  With no active meter both helpers are near-free no-ops, so
code paths outside ``ask`` pay almost nothing.

Resources:

``deadline``
    Wall-clock seconds for the whole query (``time.perf_counter``).
``candidate_tuples``
    Cumulative tuples materialized by MQF joins and the conjunctive
    planner's tuple enumeration — the quantity that blows up on
    adversarial phrasings (two same-labelled sets anchoring at the
    document root are quadratic).
``materialized_nodes``
    Cumulative nodes materialized by path steps, document scans, and
    keyword-term matches.
``flwor_iterations``
    Cumulative FLWOR binding-tuple iterations (both the naive
    nested-loop path and the planned tuple stream).

All checks are *cooperative*: the engine may overshoot a cap by one
batch (one path step, one join round) before the next check fires, but
it can never run unbounded.  Every trip increments a
``resilience.budget.exceeded.<resource>`` counter.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar

from repro.obs.metrics import METRICS
from repro.resilience.errors import BudgetExceeded

#: How many ``charge`` calls may pass between implicit deadline checks.
_DEADLINE_CHECK_INTERVAL = 64


class QueryBudget:
    """Immutable per-query resource limits (None disables a limit)."""

    #: Sane defaults for interactive use (see README "Resilience").
    DEFAULT_DEADLINE_SECONDS = 5.0
    DEFAULT_MAX_CANDIDATE_TUPLES = 1_000_000
    DEFAULT_MAX_MATERIALIZED_NODES = 5_000_000
    DEFAULT_MAX_FLWOR_ITERATIONS = 1_000_000

    __slots__ = ("deadline_seconds", "max_candidate_tuples",
                 "max_materialized_nodes", "max_flwor_iterations")

    def __init__(self, deadline_seconds=None, max_candidate_tuples=None,
                 max_materialized_nodes=None, max_flwor_iterations=None):
        self.deadline_seconds = deadline_seconds
        self.max_candidate_tuples = max_candidate_tuples
        self.max_materialized_nodes = max_materialized_nodes
        self.max_flwor_iterations = max_flwor_iterations

    @classmethod
    def default(cls, deadline_seconds=None):
        """The default interactive budget (used by ``ask(timeout=...)``)."""
        return cls(
            deadline_seconds=(
                cls.DEFAULT_DEADLINE_SECONDS
                if deadline_seconds is None
                else deadline_seconds
            ),
            max_candidate_tuples=cls.DEFAULT_MAX_CANDIDATE_TUPLES,
            max_materialized_nodes=cls.DEFAULT_MAX_MATERIALIZED_NODES,
            max_flwor_iterations=cls.DEFAULT_MAX_FLWOR_ITERATIONS,
        )

    def start(self):
        """Begin metering one query against this budget."""
        return BudgetMeter(self)

    def scaled(self, factor):
        """A copy with every finite cap multiplied by ``factor``.

        Used by the serving brownout ladder to tighten budgets under
        pressure (``factor`` < 1).  ``None`` (unlimited) caps stay
        unlimited; count caps keep a floor of 1.
        """
        if factor <= 0:
            raise ValueError(f"scale factor must be > 0, got {factor!r}")

        def _scale(value, floor=None):
            if value is None:
                return None
            scaled = value * factor
            if floor is not None:
                scaled = max(floor, int(scaled))
            return scaled

        return type(self)(
            deadline_seconds=_scale(self.deadline_seconds),
            max_candidate_tuples=_scale(self.max_candidate_tuples, floor=1),
            max_materialized_nodes=_scale(
                self.max_materialized_nodes, floor=1
            ),
            max_flwor_iterations=_scale(self.max_flwor_iterations, floor=1),
        )

    def to_dict(self):
        return {
            "deadline_seconds": self.deadline_seconds,
            "max_candidate_tuples": self.max_candidate_tuples,
            "max_materialized_nodes": self.max_materialized_nodes,
            "max_flwor_iterations": self.max_flwor_iterations,
        }

    def __repr__(self):
        parts = ", ".join(
            f"{key}={value}"
            for key, value in self.to_dict().items()
            if value is not None
        )
        return f"QueryBudget({parts})"


class BudgetMeter:
    """Tracks one query's spending against a :class:`QueryBudget`."""

    __slots__ = ("budget", "started_at", "spent", "_limits",
                 "_deadline_at", "_charges_since_deadline_check",
                 "_expired_reason")

    def __init__(self, budget):
        self.budget = budget
        self.started_at = time.perf_counter()
        self.spent = {
            "candidate_tuples": 0,
            "materialized_nodes": 0,
            "flwor_iterations": 0,
        }
        self._limits = {
            "candidate_tuples": budget.max_candidate_tuples,
            "materialized_nodes": budget.max_materialized_nodes,
            "flwor_iterations": budget.max_flwor_iterations,
        }
        self._deadline_at = (
            self.started_at + budget.deadline_seconds
            if budget.deadline_seconds is not None
            else None
        )
        self._charges_since_deadline_check = 0
        self._expired_reason = None

    def expire(self, reason="expired"):
        """Force the meter expired: the next check raises EXHAUSTED.

        Called from *another* thread (the stuck-query watchdog) to turn
        a wedged evaluation into a classified ``exhausted`` response at
        its next cooperative check.  Idempotent; a plain attribute write
        is atomic under the GIL so no lock is needed.
        """
        if self._expired_reason is None:
            self._expired_reason = reason

    @property
    def expired(self):
        return self._expired_reason is not None

    def _check_expired(self):
        if self._expired_reason is not None:
            METRICS.inc("resilience.budget.exceeded.deadline")
            raise BudgetExceeded(
                "deadline",
                self.budget.deadline_seconds or 0.0,
                self.elapsed_seconds(),
            )

    def charge(self, resource, amount=1):
        """Consume ``amount`` of ``resource``; raise when over budget.

        Also performs an implicit deadline check every
        ``_DEADLINE_CHECK_INTERVAL`` charges, so tight loops that only
        charge one resource still honour the deadline.
        """
        self._check_expired()
        spent = self.spent[resource] + amount
        self.spent[resource] = spent
        limit = self._limits[resource]
        if limit is not None and spent > limit:
            METRICS.inc(f"resilience.budget.exceeded.{resource}")
            raise BudgetExceeded(resource, limit, spent)
        self._charges_since_deadline_check += 1
        if self._charges_since_deadline_check >= _DEADLINE_CHECK_INTERVAL:
            self.check_deadline()

    def check_deadline(self):
        """Raise :class:`BudgetExceeded` when the wall clock has run out."""
        self._check_expired()
        self._charges_since_deadline_check = 0
        if self._deadline_at is None:
            return
        now = time.perf_counter()
        if now > self._deadline_at:
            METRICS.inc("resilience.budget.exceeded.deadline")
            raise BudgetExceeded(
                "deadline",
                self.budget.deadline_seconds,
                now - self.started_at,
            )

    def elapsed_seconds(self):
        return time.perf_counter() - self.started_at

    def remaining_seconds(self):
        """Seconds left before the deadline; None without one."""
        if self._deadline_at is None:
            return None
        return self._deadline_at - time.perf_counter()

    def cap_deadline(self, seconds):
        """Bring the deadline forward to ``seconds`` from now (never back)."""
        deadline_at = time.perf_counter() + seconds
        if self._deadline_at is None or deadline_at < self._deadline_at:
            self._deadline_at = deadline_at

    def snapshot(self):
        """Plain-dict view of spending (for span attributes / audits)."""
        entry = dict(self.spent)
        entry["elapsed_seconds"] = self.elapsed_seconds()
        if self._expired_reason is not None:
            entry["expired"] = self._expired_reason
        return entry

    def __repr__(self):
        return f"BudgetMeter({self.budget!r}, spent={self.spent})"


_ACTIVE_METER: ContextVar[BudgetMeter | None] = ContextVar(
    "repro_resilience_budget", default=None
)


def active_meter():
    """The budget meter active in this context, or None."""
    return _ACTIVE_METER.get()


class _MeterActivation:
    __slots__ = ("_meter", "_tokens")

    def __init__(self, meter):
        self._meter = meter
        self._tokens = []  # LIFO: safe under re-entrant use

    def __enter__(self):
        self._tokens.append(_ACTIVE_METER.set(self._meter))
        return self._meter

    def __exit__(self, exc_type, exc_value, traceback):
        _ACTIVE_METER.reset(self._tokens.pop())
        return False


def activate_budget(meter):
    """Make ``meter`` (or None) the context's active budget meter."""
    return _MeterActivation(meter)


def charge(resource, amount=1):
    """Charge the active meter; no-op when no budget is active."""
    meter = _ACTIVE_METER.get()
    if meter is not None:
        meter.charge(resource, amount)


def check_deadline():
    """Check the active meter's deadline; no-op when none is active."""
    meter = _ACTIVE_METER.get()
    if meter is not None:
        meter.check_deadline()


@contextmanager
def deadline_share(share):
    """Give the ``with`` block at most ``share`` of the time left.

    Inside the block the active meter's deadline falls ``share`` of the
    remaining time from now; on exit the full deadline is restored, so
    the rest is kept for whatever runs next.  No-op without an active
    meter or without a deadline.
    """
    meter = _ACTIVE_METER.get()
    saved = meter._deadline_at if meter is not None else None
    if saved is None:
        yield
        return
    meter.cap_deadline(share * meter.remaining_seconds())
    try:
        yield
    finally:
        meter._deadline_at = saved
