"""Thread-safety of the ContextVar-activated observability stack.

The serving layer calls ``NaLIX.ask`` from many threads at once; these
tests prove the per-query observability state does not bleed between
threads: each result's trace (plan operators included) and provenance
describe only its own query, process-wide aggregates equal the sum of per-thread counts,
concurrent audit records never interleave, and the profiler's
process-global switch-interval tweak survives concurrent use.
"""

import json
import sys
import threading

from repro.core.interface import NaLIX
from repro.obs.audit import AuditLog
from repro.obs.metrics import METRICS
from repro.obs.profiler import SamplingProfiler


QUERIES = [
    "find all titles",
    "show every movie",
    "find all directors",
    "find all movies",
]


def run_in_threads(function, count):
    """Run ``function(index)`` in ``count`` threads; re-raise failures."""
    errors = []

    def _wrapped(index):
        try:
            function(index)
        except BaseException as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    threads = [
        threading.Thread(target=_wrapped, args=(index,))
        for index in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class TestCrossThreadIsolation:
    def test_results_reference_only_their_own_query(self, movie_database):
        nalix = NaLIX(movie_database)
        # The single-threaded answers are the ground truth.
        expected = {
            sentence: nalix.ask(sentence) for sentence in QUERIES
        }
        rounds = 3
        results = {}
        lock = threading.Lock()

        def _ask(index):
            sentence = QUERIES[index % len(QUERIES)]
            result = nalix.ask(sentence)
            with lock:
                results[index] = (sentence, result)

        run_in_threads(_ask, len(QUERIES) * rounds)

        traces = set()
        for sentence, result in results.values():
            reference = expected[sentence]
            assert result.sentence == sentence
            assert result.status == "ok"
            # Same translation and same answer as the serial run: no
            # other thread's pipeline state leaked in.
            assert result.xquery_text == reference.xquery_text
            assert result.values() == reference.values()
            assert id(result.trace) not in traces
            traces.add(id(result.trace))

    def test_traces_and_operators_are_per_query(self, movie_database):
        nalix = NaLIX(movie_database)
        results = {}
        lock = threading.Lock()

        def _ask(index):
            sentence = QUERIES[index % len(QUERIES)]
            result = nalix.ask(sentence)
            with lock:
                results[index] = result

        run_in_threads(_ask, len(QUERIES) * 2)
        for result in results.values():
            spans = list(result.trace.iter_spans())
            names = {span.name for span in spans}
            # One complete pipeline per trace — not 0 (lost to another
            # thread's context) and not 2x (another thread's spans).
            assert sum(1 for span in spans if span.name == "parse") == 1
            assert sum(1 for span in spans if span.name == "evaluate") == 1
            assert "translate" in names
            # Exactly one flwor operator root, under this trace's own
            # evaluate span: no other thread's operators leaked in.
            (run,) = result.trace.find("evaluate").children
            assert [op.name for op in run.children] == ["flwor"]

    def test_metrics_totals_equal_sum_of_threads(self, movie_database):
        nalix = NaLIX(movie_database)
        before = METRICS.snapshot()["counters"].get("pipeline.queries", 0)
        per_thread = 4
        threads = 6

        def _ask(index):
            for _ in range(per_thread):
                assert nalix.ask(QUERIES[index % len(QUERIES)]).ok

        run_in_threads(_ask, threads)
        after = METRICS.snapshot()["counters"].get("pipeline.queries", 0)
        assert after - before == threads * per_thread


class TestConcurrentAuditLog:
    def test_records_never_interleave(self, movie_nalix, tmp_path):
        path = tmp_path / "audit.jsonl"
        audit = AuditLog(str(path), actor="test")
        per_thread = 5
        threads = 8

        def _record(index):
            result = movie_nalix.ask(QUERIES[index % len(QUERIES)])
            for sequence in range(per_thread):
                audit.record(result, extra={"thread": index,
                                            "sequence": sequence})

        run_in_threads(_record, threads)
        audit.close()
        entries = []
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                entries.append(json.loads(line))  # every line parses whole
        assert len(entries) == threads * per_thread
        seen = {(entry["thread"], entry["sequence"]) for entry in entries}
        assert len(seen) == threads * per_thread

    def test_rotation_under_concurrency_loses_nothing(self, movie_nalix,
                                                      tmp_path):
        path = tmp_path / "audit.jsonl"
        result = movie_nalix.ask("find all titles")
        probe = AuditLog(str(path), actor="probe")
        record_bytes = len(
            json.dumps(probe.record(result), sort_keys=True)
        ) + 1
        probe.close()
        path.unlink()

        audit = AuditLog(str(path), actor="test",
                         max_bytes=record_bytes * 4)
        threads, per_thread = 6, 10

        def _record(index):
            for sequence in range(per_thread):
                audit.record(result, extra={"thread": index,
                                            "sequence": sequence})

        run_in_threads(_record, threads)
        audit.close()
        entries = []
        for candidate in (path, path.with_suffix(path.suffix + ".1")):
            if candidate.exists():
                with open(candidate, encoding="utf-8") as handle:
                    for line in handle:
                        entries.append(json.loads(line))
        # Rotation keeps the active file plus one predecessor; nothing
        # in either file may be torn, and no (thread, sequence) pair
        # may appear twice.
        keys = [(entry["thread"], entry["sequence"]) for entry in entries]
        assert len(keys) == len(set(keys))
        assert len(keys) >= 4  # at least the last generation survives


class TestProfilerSwitchInterval:
    def test_concurrent_profilers_restore_the_interval(self, movie_nalix):
        original = sys.getswitchinterval()

        def _profile(index):
            profiler = SamplingProfiler(hz=200)
            profiler.start()
            movie_nalix.ask(QUERIES[index % len(QUERIES)])
            profiler.stop()

        run_in_threads(_profile, 4)
        assert sys.getswitchinterval() == original
