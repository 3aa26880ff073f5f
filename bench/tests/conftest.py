"""Make the benchmark's modules and the program importable in its tests."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)


@pytest.fixture(scope="session")
def small():
    """NaLIX and an oracle over the 120-book collection, seed 7."""
    from oracle import Oracle
    from repro.core.interface import NaLIX
    from repro.data import DblpConfig, generate_dblp
    from repro.database.store import Database

    document = generate_dblp(DblpConfig(books=120, seed=7))
    database = Database()
    database.load_document(document)
    return NaLIX(database), Oracle(document)
