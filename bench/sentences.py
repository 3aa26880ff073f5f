"""Seeded generator of unseen benchmark sentences, each with its gold.

Sentences follow the shapes of the study tasks (Q1, Q3/Q4/Q6, Q7, Q8, Q9,
Q10, Q11) and of the task list's invalid phrasings, with values drawn
from the loaded document.  A run draws them without replacement, so no
sentence repeats within a run and a cache keyed on the sentence, its
XQuery or its answer never hits.  The study's own phrasings are never
generated: they are the warm-up set.

Shapes are interleaved in a fixed cycle, so the mix of cheap and costly
shapes is the same for every seed.  A valid shape whose pool runs out is
replaced by the largest valid pool left, so two sentences in eleven stay
rejections however long the run.

Run as a program, it writes the stream for one workload as JSON lines,
each with the sentence's expected answer (see oracle.Expected).  The
worker reads them from a pipe as it needs them, so neither the sentence
pools nor the oracle's copy of the document count towards the measured
process's memory::

    python bench/sentences.py --workload unique-tiny --seed 7
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from itertools import permutations
from typing import NamedTuple

from oracle import ENTITY_FIELDS, Oracle, Query
from repro.evaluation.tasks import TASKS

#: Shapes in the order one cycle draws them.  Q6's slot draws a second
#: book projection (its reference sentence is Q3's); two slots in eleven
#: are phrasings that must be rejected.
CYCLE = ("Q1", "Q3", "Q4", "Q3", "Q7", "Q8", "Q9", "Q10", "Q11",
         "invalid", "invalid")

VERBS = ("Return", "Find", "List")
DETERMINERS = ("every", "each")

#: How a field is named as the object of "the ... of every book".
FIELD_NOUN = {"author": "authors", "title": "title", "publisher": "publisher",
              "year": "year", "journal": "journal", "pages": "pages"}
PLURAL = {"author": "authors", "title": "titles", "publisher": "publishers",
          "year": "years", "journal": "journals", "pages": "pages",
          "book": "books", "article": "articles"}


class Exclusion(NamedTuple):
    """Inputs the oracle proves the engine answers wrongly today.

    The generator drops every sentence ``pattern`` matches and the run
    reports how many, so nothing is dropped silently.  ``example`` and
    ``query`` are one such input and its gold; a test asserts that the
    engine still gets it wrong, so the entry is removed once the engine
    is fixed.
    """

    pattern: str
    reason: str
    example: str
    query: Query


EXCLUSIONS = (
    Exclusion(
        pattern=r"published by Kluwer Academic Publishers",
        reason='unquoted "Kluwer Academic Publishers" translates to '
               '$v = "Kluwer Academic" plus a stray //publisher variable '
               "and answers empty with status ok; the quoted form is right",
        example="Return the year and title of every book published by "
                "Kluwer Academic Publishers after 1991.",
        query=Query("book", (("publisher", "=", "Kluwer Academic Publishers"),
                             ("year", ">", 1991)), "fields",
                    ("year", "title")),
    ),
    Exclusion(
        pattern=r"^\w+ the \w+ and (the )?\w+ of (every|each) \w+ where ",
        reason="two returned fields with a where clause: the first field "
               "is left out of mqf(...), so it is paired with every entry",
        example='Return the title and the year of every book where the '
                'author of the book contains "Suciu".',
        query=Query("book", (("author", "contains", "Suciu"),), "fields",
                    ("title", "year")),
    ),
)

_EXCLUSION_RES = tuple(
    (re.compile(exclusion.pattern), exclusion) for exclusion in EXCLUSIONS
)
_STOP_WORDS = {"and", "for", "of", "on", "the", "with"}


class Vocabulary:
    """The values a sentence may mention, read from the loaded document."""

    def __init__(self, oracle):
        books = oracle.entries["book"]
        articles = oracle.entries["article"]
        everything = oracle.entries["any"]
        self.publishers = sorted({e.first("publisher") for e in books} - {""})
        self.journals = sorted({e.first("journal") for e in articles} - {""})
        years = sorted({int(e.first("year")) for e in everything
                        if e.first("year")})
        # Thresholds strictly inside the range, so no filter is vacuous.
        self.years = years[1:-1]
        self.names = sorted({
            text.split()[-1] for e in everything
            for text in e.children.get("author", ())
        })
        self.words = {
            field: sorted({
                word for e in everything
                for text in e.children.get(field, ())
                for word in text.split()
                if word.isalpha() and word[0].isupper() and len(word) > 2
                and word.lower() not in _STOP_WORDS
            })
            for field in ("title", "publisher", "journal")
        }
        self.words["author"] = self.names


def _field_phrases(entity):
    """("the title", ("title",)), ("the year and the title", ...), ..."""
    fields = ENTITY_FIELDS[entity]
    phrases = [(f"the {FIELD_NOUN[f]}", (f,)) for f in fields]
    for first, second in permutations(fields, 2):
        for joiner in (" and the ", " and "):
            phrases.append((
                f"the {FIELD_NOUN[first]}{joiner}{FIELD_NOUN[second]}",
                (first, second),
            ))
    return phrases


def _year_filters(vocab):
    for year in vocab.years:
        yield f"published after {year}", (("year", ">", year),)
        yield f"published before {year}", (("year", "<", year),)


def _publisher_names(vocab):
    for publisher in vocab.publishers:
        yield publisher, publisher
        yield f'"{publisher}"', publisher


def _q1(vocab):
    """Books by one publisher after a year."""
    for phrase, fields in _field_phrases("book"):
        for shown, publisher in _publisher_names(vocab):
            by = (("publisher", "=", publisher),)
            for verb in VERBS:
                for det in DETERMINERS:
                    head = f"{verb} {phrase} of {det} book published by " \
                           f"{shown}"
                    for year in vocab.years:
                        yield (f"{head} after {year}.",
                               Query("book", by + (("year", ">", year),),
                                     "fields", fields))


def _q3(vocab):
    """Projections of every book (Q3, Q6)."""
    yield from _projection("book")


def _q4(vocab):
    """Projections of every article (Q4)."""
    yield from _projection("article")


def _projection(entity):
    for phrase, fields in _field_phrases(entity):
        for verb in VERBS:
            for det in DETERMINERS:
                yield (f"{verb} {phrase} of {det} {entity}.",
                       Query(entity, (), "fields", fields))


def _q7(vocab):
    """One field of every entry, sorted by it, optionally year-filtered."""
    for entity, fields in ENTITY_FIELDS.items():
        for field in fields:
            noun = FIELD_NOUN[field]
            filters = [("", ())] + [
                (f" {text}", spec) for text, spec in _year_filters(vocab)
            ]
            for verb in VERBS:
                for det in DETERMINERS:
                    for text, spec in filters:
                        yield (f"{verb} the {noun} of {det} {entity}{text}, "
                               f"sorted by {field}.",
                               Query(entity, spec, "sorted", (field,)))


def _contains_targets(vocab, entity):
    for field in ENTITY_FIELDS[entity]:
        for word in vocab.words.get(field, ()):
            yield field, word


def _q8(vocab):
    """Entries (or their fields) where a field contains a word."""
    for entity in ENTITY_FIELDS:
        for field, word in _contains_targets(vocab, entity):
            where = (f'where the {field} of the {entity} contains "{word}"')
            spec = ((field, "contains", word),)
            for verb in ("Find", "Return"):
                for det in DETERMINERS:
                    yield (f"{verb} {det} {entity} {where}.",
                           Query(entity, spec, "self"))
            for phrase, fields in _field_phrases(entity):
                if field in fields:
                    # Ambiguous: "the authors of every book where the
                    # author contains X" may mean only the matching ones.
                    continue
                for det in DETERMINERS:
                    yield (f"Return {phrase} of {det} {entity} {where}.",
                           Query(entity, spec, "fields", fields))


def _q9(vocab):
    """Every title (author, journal, publisher) containing a word."""
    for field in ("title", "author", "journal", "publisher"):
        for word in vocab.words[field]:
            query = Query("any", (), "matching", (field, word))
            for verb in VERBS:
                yield f'{verb} every {field} that contains "{word}".', query
                yield (f'{verb} the {PLURAL[field]} containing "{word}".',
                       query)


def _q10(vocab):
    """The number of books per publisher (articles per journal)."""
    for entity, group in (("book", "publisher"), ("article", "journal")):
        plural = PLURAL[entity]
        for verb in VERBS:
            for det in DETERMINERS:
                for conn in ("published by", "of", "for"):
                    yield (f"{verb} the number of {plural} {conn} {det} "
                           f"{group}.", Query(entity, (), "count", (group,)))
                for year in vocab.years:
                    yield (f"{verb} the number of {plural} of {det} {group} "
                           f"published after {year}.",
                           Query(entity, (("year", ">", year),), "count",
                                 (group,)))


def _q11(vocab):
    """Fields of every entry published after or before a year, or in a
    journal."""
    for entity in ENTITY_FIELDS:
        filters = list(_year_filters(vocab))
        if entity == "article":
            filters += [(f'published in "{journal}"',
                         (("journal", "=", journal),))
                        for journal in vocab.journals]
        for phrase, fields in _field_phrases(entity):
            for verb in VERBS:
                for det in DETERMINERS:
                    for text, spec in filters:
                        yield (f"{verb} {phrase} of {det} {entity} {text}.",
                               Query(entity, spec, "fields", fields))


def _invalid(vocab):
    """The task list's invalid phrasings, with other values filled in."""
    reject = Query("any", (), "reject")
    for verb in VERBS:
        for entity, fields in ENTITY_FIELDS.items():
            plural = PLURAL[entity]
            for first, second in permutations(fields, 2):
                yield (f"{verb} {PLURAL[first]} as well as {PLURAL[second]} "
                       f"of all {plural}.", reject)
                yield (f"{verb} the {PLURAL[first]} of {plural} as {second} "
                       f"groups.", reject)
                yield (f"{verb} the {first} and the first two "
                       f"{PLURAL[second]} of every {entity}.", reject)
                for year in vocab.years:
                    for when in ("after", "before"):
                        yield (f"{verb} {plural} as {first} and {second} "
                               f"{when} {year}.", reject)
            for field in fields:
                yield (f"{verb} the {PLURAL[field]} of {plural} as an "
                       f"alphabetic list.", reject)
            for _, word in _contains_targets(vocab, entity):
                yield (f'{verb} {plural} mentioning "{word}" somewhere '
                       f"inside.", reject)
        for field in ("title", "author", "journal", "publisher"):
            for word in vocab.words[field]:
                yield (f'{verb} {PLURAL[field]} such that "{word}" shows '
                       f"up.", reject)
    for verb in ("Show", "List", "Find"):
        for publisher in vocab.publishers:
            for year in vocab.years:
                yield (f"{verb} books that appeared at {publisher} as of "
                       f"{year}.", reject)
    for entity, fields in ENTITY_FIELDS.items():
        for group in fields:
            for total in ("totals", "sums", "numbers"):
                yield f"Count {PLURAL[entity]} per {group} as {total}.", reject


FAMILIES = {"Q1": _q1, "Q3": _q3, "Q4": _q4, "Q7": _q7, "Q8": _q8,
            "Q9": _q9, "Q10": _q10, "Q11": _q11, "invalid": _invalid}


class Generated(NamedTuple):
    shape: str
    sentence: str
    query: Query


def excluded_by(sentence):
    """The :class:`Exclusion` that drops ``sentence``, or None."""
    for pattern, exclusion in _EXCLUSION_RES:
        if pattern.search(sentence):
            return exclusion
    return None


class SentenceStream:
    """The seeded sequence of unique sentences for one run.

    ``excluded`` counts, per exclusion reason, the sentences dropped from
    the pools.  Iterating yields :class:`Generated` items in cycle order
    until every pool is empty.
    """

    def __init__(self, oracle, seed):
        vocab = Vocabulary(oracle)
        study = {phrasing.text for task in TASKS for phrasing in task.phrasings}
        seen = set(study)
        self.excluded = {}
        self.pools = {}
        for shape, family in FAMILIES.items():
            pool = []
            for sentence, query in family(vocab):
                if sentence in seen:
                    continue
                seen.add(sentence)
                exclusion = excluded_by(sentence)
                if exclusion is not None:
                    self.excluded[exclusion.reason] = (
                        self.excluded.get(exclusion.reason, 0) + 1
                    )
                    continue
                pool.append(Generated(shape, sentence, query))
            random.Random(f"{seed}:{shape}").shuffle(pool)
            pool.reverse()  # pop() from the end draws the shuffled order
            self.pools[shape] = pool

    def __iter__(self):
        """Cycles of :data:`CYCLE` until every pool is empty.

        A valid shape whose pool is empty draws from the largest valid
        pool left instead, so a cycle keeps its length and its two
        rejections, and the share of rejections stays the same over a
        long run.
        """
        valid = [pool for shape, pool in self.pools.items()
                 if shape != "invalid"]
        while any(valid):
            for shape in CYCLE:
                pool = self.pools[shape]
                if not pool and shape != "invalid":
                    pool = max(valid, key=len)
                if pool:
                    yield pool.pop()


def main(argv=None):
    from measure import SCALES, dblp_config
    from repro.data import generate_dblp
    from repro.database.store import Database

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=[name for name in SCALES
                                 if name.startswith("unique")])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    document = generate_dblp(dblp_config(args.workload, args.seed))
    database = Database()
    database.load_document(document)
    oracle = Oracle(document)
    oracle.check_against_tasks(database)
    stream = SentenceStream(oracle, args.seed)
    for reason, count in stream.excluded.items():
        print(f"excluded {count} generated inputs: {reason}",
              file=sys.stderr)
    try:
        for item in stream:
            print(json.dumps({"shape": item.shape, "sentence": item.sentence,
                              "expected": oracle.expected(item.query)}))
        sys.stdout.flush()
    except BrokenPipeError:
        pass  # the reader has all it needs
    return 0


if __name__ == "__main__":
    sys.exit(main())
