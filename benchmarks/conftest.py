"""Shared fixtures for the benchmark harness.

The expensive artifacts (the DBLP database and the full 18-participant
study run) are session-scoped so each bench module reuses them.
Performance is measured by the end-to-end benchmark in ``bench/``; the
modules here reproduce the paper's figures, tables and examples.
"""

import pytest

from repro.core.interface import NaLIX
from repro.data import generate_dblp, movies_document
from repro.database.store import Database
from repro.evaluation.study import Study, StudyConfig


@pytest.fixture(scope="session")
def dblp_database():
    database = Database()
    database.load_document(generate_dblp())
    return database


@pytest.fixture(scope="session")
def movie_database():
    database = Database()
    database.load_document(movies_document())
    return database


@pytest.fixture(scope="session")
def dblp_nalix(dblp_database):
    return NaLIX(dblp_database)


@pytest.fixture(scope="session")
def movie_nalix(movie_database):
    return NaLIX(movie_database)


@pytest.fixture(scope="session")
def study():
    return Study(StudyConfig(participants=18, seed=2006))


@pytest.fixture(scope="session")
def study_results(study):
    return study.run()
