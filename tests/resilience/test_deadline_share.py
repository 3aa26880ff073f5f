"""The naive-FLWOR hop may not spend the time the keyword hop needs."""

import time

import pytest

from repro.core.interface import NaLIX
from repro.data import DblpConfig, generate_dblp
from repro.database.store import Database
from repro.resilience.budget import (
    QueryBudget,
    activate_budget,
    check_deadline,
    deadline_share,
)
from repro.resilience.errors import BudgetExceeded
from repro.serve.watchdog import InflightRegistry

#: Naive nested-loop evaluation of this sentence at 40 books runs for
#: seconds; the keyword hop answers it in milliseconds.
BLOWUP_SENTENCE = "Return the title and the authors of every book."


@pytest.fixture(scope="module")
def dblp_40_database():
    database = Database()
    database.load_document(generate_dblp(DblpConfig(books=40, seed=7)))
    return database


class TestDeadlineShare:
    def test_block_gets_its_share_then_the_deadline_is_restored(self):
        meter = QueryBudget(deadline_seconds=0.2).start()
        with activate_budget(meter):
            with deadline_share(0.25):
                time.sleep(0.06)
                with pytest.raises(BudgetExceeded):
                    check_deadline()
            check_deadline()  # the held-back time is still there

    def test_noop_without_meter_or_deadline(self):
        with deadline_share(0.0):
            check_deadline()
        with activate_budget(QueryBudget().start()):
            with deadline_share(0.0):
                check_deadline()


class TestWatchdogHardDeadline:
    def test_registry_caps_the_meter_at_the_hard_deadline(self):
        registry = InflightRegistry(soft_seconds=0.1, hard_seconds=0.3)
        meter = QueryBudget.default(deadline_seconds=30.0).start()
        registry.register("r1", "tenant-a", "find all titles", meter)
        assert meter.remaining_seconds() <= 0.3

    def test_a_later_hard_deadline_never_extends_the_meter(self):
        registry = InflightRegistry()  # hard deadline = 3x the budget
        meter = QueryBudget.default(deadline_seconds=1.0).start()
        registry.register("r1", "tenant-a", "find all titles", meter)
        assert meter.remaining_seconds() <= 1.0


class TestLadderKeepsTimeForKeywordSearch:
    def test_naive_blowup_still_degrades_to_keyword_search(
        self, dblp_40_database
    ):
        deadline = 0.5
        nalix = NaLIX(dblp_40_database, fault_plan="evaluate:probability=1.0")
        result = nalix.ask(BLOWUP_SENTENCE, timeout=deadline)
        assert result.status == "degraded", result.render_feedback()
        assert result.degradation_path == ["naive-flwor", "keyword-search"]
        assert result.trace.find("evaluate-keyword") is not None
        assert result.total_seconds < deadline

    def test_keyword_hop_runs_before_the_watchdog_hard_deadline(
        self, dblp_40_database
    ):
        """Serving under chaos: a 5 s budget but a 0.9 s hard deadline,
        past which the watchdog would expire the meter mid-ladder."""
        hard = 0.9
        registry = InflightRegistry(soft_seconds=0.2, hard_seconds=hard)
        meter = QueryBudget.default().start()
        entry = registry.register("r1", "tenant-a", BLOWUP_SENTENCE, meter)
        nalix = NaLIX(dblp_40_database, fault_plan="evaluate:probability=1.0")
        result = nalix.ask(BLOWUP_SENTENCE, meter=meter)
        registry.finish(entry)
        assert result.status == "degraded", result.render_feedback()
        assert result.degradation_path == ["naive-flwor", "keyword-search"]
        assert result.total_seconds < hard
