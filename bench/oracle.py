"""Expected answers for benchmark sentences, computed from the document alone.

Every generated sentence carries a :class:`Query`: which entries it asks
about, how they are filtered, and what it returns.  :class:`Oracle`
answers a ``Query`` by walking the generated DBLP document, in the style
of the schema-aware gold functions of ``repro.evaluation.tasks``; the
engine under test is never consulted.  The golds here are those task
golds with their constants turned into parameters (Q1's publisher and
year, Q8's name, Q9's word, ...).  :meth:`Oracle.check_against_tasks`
proves, on every loaded document and before anything is measured, that
at each task's own parameters they agree exactly with the task's gold.
The reference sentences themselves are checked against the task golds
directly (:func:`task_expected`).

An answer is checked through fingerprints of its string values
(:class:`Expected`): equal ``answer_digest`` means an equal multiset of
values, and ordered answers also compare an order fingerprint.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from typing import NamedTuple

from repro.evaluation.tasks import TASKS, task_by_id
from repro.obs.answers import answer_digest, canonical_value
from repro.xmlstore.model import ElementNode

#: The child elements of each entry kind, as the generator writes them.
ENTITY_FIELDS = {
    "book": ("author", "title", "publisher", "year"),
    "article": ("author", "title", "journal", "year", "pages"),
}


class Query(NamedTuple):
    """What a sentence asks for.

    ``entity`` is ``book``, ``article`` or ``any`` (both).  ``filters``
    is a tuple of ``(field, op, value)`` with op ``=``, ``>``, ``<`` or
    ``contains``; every filter reads the entry's first such child, as the
    task golds do, except ``contains``, which holds when any child does.
    ``returns`` is one of:

    * ``fields`` -- the named children of every matching entry;
    * ``self`` -- every matching entry itself;
    * ``sorted`` -- the one named child of every matching entry, in
      case-insensitive order (the answer's order is checked too);
    * ``matching`` -- the children named by ``fields[0]`` that contain
      ``fields[1]``, over every entry;
    * ``count`` -- for every matching entry, the number of entries of
      its kind that share its ``fields[0]`` child;
    * ``reject`` -- no answer: the sentence must be turned back with
      feedback.
    """

    entity: str
    filters: tuple
    returns: str
    fields: tuple = ()


#: The query each task's reference sentence asks.  Q6's reference
#: sentence is the same text as Q3's, so it asks Q3's query.
TASK_QUERIES = {
    "Q1": Query("book", (("publisher", "=", "Addison-Wesley"),
                         ("year", ">", 1991)), "fields", ("year", "title")),
    "Q3": Query("book", (), "fields", ("title", "author")),
    "Q4": Query("article", (), "fields", ("author", "title")),
    "Q6": Query("book", (), "fields", ("title", "author")),
    "Q7": Query("book", (), "sorted", ("title",)),
    "Q8": Query("book", (("author", "contains", "Suciu"),), "self"),
    "Q9": Query("any", (), "matching", ("title", "XML")),
    "Q10": Query("book", (), "count", ("publisher",)),
    "Q11": Query("article", (("year", ">", 2000),), "fields",
                 ("title", "journal")),
}


class Expected(NamedTuple):
    """The gold answer of one query, as the checks need it.

    ``digest`` is ``repro.obs.answers.answer_digest`` of the gold's
    string values, so equal digests mean equal multisets of values;
    ``order`` fingerprints the values in order when order counts.
    """

    reject: bool
    count: int = 0
    digest: str = ""
    order: str = None

    @classmethod
    def of(cls, values, ordered=False):
        return cls(False, len(values), answer_digest(values),
                   order_digest(values) if ordered else None)


REJECT = Expected(True)


def order_digest(values):
    """A fingerprint of ``values`` in their order."""
    payload = json.dumps(values, ensure_ascii=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:16]


class _Entry:
    """One top-level entry (book or article) with its children's text."""

    __slots__ = ("kind", "value", "children")

    def __init__(self, element):
        self.kind = element.tag
        self.value = element.string_value()
        self.children = {}
        for child in element.child_elements():
            self.children.setdefault(child.tag, []).append(
                child.string_value()
            )

    def first(self, field):
        values = self.children.get(field)
        return values[0].strip() if values else ""


def _passes(entry, filters):
    for field, op, value in filters:
        if op == "contains":
            needle = value.casefold()
            if not any(needle in text.casefold()
                       for text in entry.children.get(field, ())):
                return False
            continue
        text = entry.first(field)
        if op == "=":
            if text != value:
                return False
        elif not text:
            return False
        elif op == ">" and not int(text) > value:
            return False
        elif op == "<" and not int(text) < value:
            return False
    return True


class Oracle:
    """Gold answers over one loaded document."""

    def __init__(self, document):
        entries = [
            _Entry(element) for element in document.root.children
            if isinstance(element, ElementNode)
        ]
        self.entries = {
            "any": entries,
            "book": [entry for entry in entries if entry.kind == "book"],
            "article": [entry for entry in entries
                        if entry.kind == "article"],
        }

    def expected(self, query):
        """The :class:`Expected` answer of ``query``."""
        if query.returns == "reject":
            return REJECT
        return Expected.of(self.values(query),
                           ordered=query.returns == "sorted")

    def values(self, query):
        """The gold's string values for an answering ``query``."""
        entries = [entry for entry in self.entries[query.entity]
                   if _passes(entry, query.filters)]
        if query.returns == "fields":
            return [text for entry in entries for field in query.fields
                    for text in entry.children.get(field, ())]
        if query.returns == "self":
            return [entry.value for entry in entries]
        if query.returns == "sorted":
            (field,) = query.fields
            return sorted((text for entry in entries
                           for text in entry.children.get(field, ())),
                          key=str.casefold)
        if query.returns == "matching":
            field, word = query.fields
            needle = word.casefold()
            return [text for entry in entries
                    for text in entry.children.get(field, ())
                    if needle in text.casefold()]
        if query.returns == "count":
            (group,) = query.fields
            counts = Counter(entry.first(group)
                             for entry in self.entries[query.entity])
            return [str(counts[text.strip()]) for entry in entries
                    for text in entry.children.get(group, ())]
        raise ValueError(f"unknown query shape {query.returns!r}")

    def check_against_tasks(self, database):
        """Raise unless every parameterised gold equals its task's gold.

        Q6 is skipped: its reference sentence is Q3's and asks Q3's
        query, whose gold is compared under Q3.
        """
        for task in TASKS:
            if task.task_id == "Q6":
                continue
            ours = self.values(TASK_QUERIES[task.task_id])
            theirs = task_values(task.task_id, database)
            same = (ours == theirs if task.ordered
                    else Counter(ours) == Counter(theirs))
            if not same:
                raise AssertionError(
                    f"parameterised gold for {task.task_id} differs from "
                    f"repro.evaluation.tasks ({len(ours)} vs {len(theirs)} "
                    "values)"
                )


def task_values(task_id, database):
    """A study task's gold as string values, from its gold function."""
    return [canonical_value(item)
            for item in task_by_id(task_id).gold(database)]


def task_expected(task_id, database):
    """The :class:`Expected` answer of a study task's reference sentence.

    Q6's reference sentence is the same text as Q3's, so it gets Q3's gold.
    """
    gold_id = "Q3" if task_id == "Q6" else task_id
    return Expected.of(task_values(gold_id, database),
                       ordered=task_by_id(gold_id).ordered)


def check_result(expected, result):
    """None when a ``QueryResult`` matches ``expected``, else why not."""
    if expected.reject:
        if result.status != "rejected" or not result.errors:
            return f"expected a rejection, got status {result.status}"
        return None
    if result.status != "ok":
        codes = ",".join(message.code for message in result.errors)
        return f"status {result.status} ({codes})"
    values = result.values()
    if len(values) != expected.count:
        return f"{len(values)} values, gold {expected.count}"
    if answer_digest(values) != expected.digest:
        return "values differ from the gold's"
    if expected.order is not None and order_digest(values) != expected.order:
        return "values are not in the gold's order"
    return None


def check_response(expected, status, body):
    """None when a ``/query`` response matches ``expected``, else why not."""
    if expected.reject:
        errors = [item for item in body.get("feedback", ())
                  if item.get("severity") == "error"]
        if status != 422 or not errors:
            return f"expected 422 with feedback, got HTTP {status}"
        return None
    if status != 200 or body.get("status") != "ok":
        return f"HTTP {status}, status {body.get('status')}"
    if body.get("result_count") != expected.count:
        return f"result_count {body.get('result_count')}, gold {expected.count}"
    if body.get("answer_digest") != expected.digest:
        return "answer_digest differs from the gold's"
    return None
