"""The oracle accepts right answers and flags wrong ones."""

from oracle import (REJECT, TASK_QUERIES, check_response, check_result,
                    task_expected)
from repro.evaluation.tasks import TASKS, reference_sentences, task_by_id


def test_parameterised_golds_equal_the_task_golds(small):
    nalix, oracle = small
    oracle.check_against_tasks(nalix.database)


def test_reference_answers_match_the_task_golds(small):
    nalix, _ = small
    for task_id, sentence in reference_sentences():
        expected = task_expected(task_id, nalix.database)
        assert check_result(expected, nalix.ask(sentence)) is None, task_id


def test_a_swapped_gold_is_flagged(small):
    nalix, oracle = small
    result = nalix.ask(task_by_id("Q1").good_phrasings()[0].text)
    assert check_result(oracle.expected(TASK_QUERIES["Q1"]), result) is None
    assert check_result(oracle.expected(TASK_QUERIES["Q3"]), result)
    assert check_result(task_expected("Q11", nalix.database), result)


def test_an_unordered_q7_is_flagged(small):
    nalix, oracle = small
    result = nalix.ask(task_by_id("Q7").good_phrasings()[0].text)
    expected = oracle.expected(TASK_QUERIES["Q7"])
    assert check_result(expected, result) is None
    result.items.reverse()
    assert check_result(expected, result) == \
        "values are not in the gold's order"


def test_rejections_are_checked_both_ways(small):
    nalix, oracle = small
    invalid = next(phrasing.text for task in TASKS
                   for phrasing in task.phrasings if not phrasing.valid)
    assert check_result(REJECT, nalix.ask(invalid)) is None
    valid = nalix.ask(task_by_id("Q9").good_phrasings()[0].text)
    assert check_result(REJECT, valid)
    assert check_result(oracle.expected(TASK_QUERIES["Q9"]),
                        nalix.ask(invalid))


def test_http_responses_are_checked_by_digest_and_count(small):
    nalix, oracle = small
    expected = oracle.expected(TASK_QUERIES["Q9"])
    body = {"status": "ok", "result_count": expected.count,
            "answer_digest": expected.digest}
    assert check_response(expected, 200, body) is None
    assert check_response(expected, 200, dict(body, answer_digest="0" * 16))
    assert check_response(expected, 200,
                          dict(body, result_count=expected.count + 1))
    assert check_response(expected, 500, body)
    rejected = {"feedback": [{"severity": "error", "code": "unknown-term"}]}
    assert check_response(REJECT, 422, rejected) is None
    assert check_response(REJECT, 422, {"feedback": []})
    assert check_response(REJECT, 200, body)
