"""Committed golden answer digests for the canary's probe set.

The serving canary (:mod:`repro.serve.canary`) re-executes the nine
study tasks' reference sentences and compares each answer's canonical
digest (:mod:`repro.obs.answers`) against a golden fixture.  This
module holds the committed fixtures for the standard generated-DBLP
datasets — keyed by ``(data, books, seed)`` so a canary on a dataset
we never baselined falls back to self-baselining instead of drifting
forever against the wrong goldens.

The digests are reproducible: the DBLP generator is seeded, the
normalizer sorts the answer multiset, and the digest is a truncated
sha256 over versioned canonical JSON.  Regenerate after an intentional
pipeline change with::

    PYTHONPATH=src python -c "
    from repro.core.interface import NaLIX
    from repro.data import DblpConfig, generate_dblp
    from repro.database.store import Database
    from repro.evaluation.goldens import compute_goldens
    database = Database()
    database.load_document(generate_dblp(DblpConfig(books=40, seed=7)))
    print(compute_goldens(NaLIX(database)))"

and paste the result here.  An *unintentional* digest change is
exactly what the canary (and the ``tests/serve/test_canary.py``
fixture check) exists to catch — update these values only when the
answer change is understood and deliberate.
"""

from __future__ import annotations

#: ``{golden_key: {task_id: digest}}`` for the baselined datasets.
#: ``dblp:books=40:seed=7`` is the CI smoke dataset;
#: ``dblp:books=120:seed=7`` is the serve default.
GOLDEN_DIGESTS = {
    "dblp:books=40:seed=7": {
        "Q1": "33bcf82686a8fbd4",
        "Q3": "84efd5dc5d2cafd6",
        "Q4": "23f9b386ade97c85",
        "Q6": "84efd5dc5d2cafd6",
        "Q7": "20948a8a7070dcd5",
        "Q8": "ee56182d6c85eb35",
        "Q9": "c802ed8cf40b50c0",
        "Q10": "1280cb56d88ffbbb",
        "Q11": "d3475d38152a0fa5",
    },
    "dblp:books=120:seed=7": {
        "Q1": "74a19dfc9ecaf94a",
        "Q3": "1ea6fba69b921f2e",
        "Q4": "2e58355935a2d9b7",
        "Q6": "1ea6fba69b921f2e",
        "Q7": "b319fb90acf9924b",
        "Q8": "6c34895fd1680ae3",
        "Q9": "ebfb0ad950ce9eda",
        "Q10": "69464e089ecee4ee",
        "Q11": "ef364a6393fdc902",
    },
}


def golden_key(data, books, seed):
    """The fixture key for one dataset spec (``dblp:books=40:seed=7``)."""
    return f"{data}:books={books}:seed={seed}"


def goldens_for(data, books, seed):
    """The committed ``{task_id: digest}`` fixture, or ``None``.

    ``None`` (an unbaselined dataset) tells the canary to self-baseline
    from its first healthy sweep instead of comparing against goldens
    computed over different data.
    """
    fixture = GOLDEN_DIGESTS.get(golden_key(data, books, seed))
    return dict(fixture) if fixture is not None else None


def compute_goldens(nalix):
    """Fresh ``{task_id: digest}`` goldens from a live pipeline.

    Only healthy (status ``ok``) answers produce a golden — a task the
    pipeline cannot answer cleanly has no trustworthy digest to pin.
    """
    from repro.evaluation.tasks import reference_sentences

    goldens = {}
    for task_id, sentence in reference_sentences():
        result = nalix.ask(sentence)
        if result.status == "ok" and result.answer_digest is not None:
            goldens[task_id] = result.answer_digest
    return goldens
