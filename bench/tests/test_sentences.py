"""The sentence generator is seeded, never repeats, and is right today."""

import itertools

import pytest
from oracle import check_result
from repro.evaluation.tasks import TASKS
from sentences import EXCLUSIONS, SentenceStream, excluded_by


def _sentences(oracle, seed, limit=None):
    return [item.sentence
            for item in itertools.islice(SentenceStream(oracle, seed), limit)]


def test_same_seed_same_list_and_no_repeats(small):
    _, oracle = small
    first = _sentences(oracle, 7)
    assert first == _sentences(oracle, 7)
    assert len(set(first)) == len(first)


def test_another_seed_another_list(small):
    _, oracle = small
    assert _sentences(oracle, 7, 500) != _sentences(oracle, 8, 500)


def test_study_phrasings_are_never_generated(small):
    _, oracle = small
    study = {phrasing.text for task in TASKS for phrasing in task.phrasings}
    assert not study & set(_sentences(oracle, 7))


def test_generated_sentences_are_answered_as_the_oracle_expects(small):
    nalix, oracle = small
    for item in itertools.islice(SentenceStream(oracle, 11), 400):
        result = nalix.ask(item.sentence)
        assert check_result(oracle.expected(item.query), result) is None, \
            item.sentence


def test_exclusions_are_counted_not_dropped_silently(small):
    _, oracle = small
    stream = SentenceStream(oracle, 7)
    assert set(stream.excluded) == {exclusion.reason
                                    for exclusion in EXCLUSIONS}
    assert all(count > 0 for count in stream.excluded.values())
    assert not any(excluded_by(sentence) for sentence in _sentences(oracle, 7))


@pytest.mark.parametrize("exclusion", EXCLUSIONS,
                         ids=[e.pattern for e in EXCLUSIONS])
def test_each_excluded_case_still_fails(small, exclusion):
    """Remove the exclusion (and this case) once the engine gets it right."""
    nalix, oracle = small
    assert excluded_by(exclusion.example) is exclusion
    result = nalix.ask(exclusion.example)
    assert check_result(oracle.expected(exclusion.query), result) is not None
