"""One in-process workload in a fresh interpreter: set up, warm, measure.

run.py starts it as ``python bench/worker.py --workload NAME --seed N
--seconds S --trace 0|1`` with ``PYTHONPATH=src``.  The worker prints
``READY {...}`` as soon as NaLIX is ready (run.py times spawn -> READY as
set-up) and ``RESULT {...}`` when done; diagnostics go to stderr.

The client is closed-loop: one caller that sends the next sentence when
the previous answer is back.  Only the time inside ``ask()`` is measured;
checking each answer against the oracle happens between asks.
"""

from __future__ import annotations

import argparse
import itertools
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from measure import SCALES, dblp_config
from repro.core.interface import NaLIX
from repro.data import generate_dblp
from repro.database.store import Database

#: The ask() stages, timed as separate public calls in the traced run.
STAGES = ("nlp.parse", "core.classify", "core.validate", "core.translate",
          "analysis.analyze", "xquery.parse", "xquery.evaluate",
          "obs.digest")

#: Per-layer metrics that come from each wrapped entry point; they read
#: null when the entry point is missing.
LAYER_METRICS = {
    "xquery.plan": ("xquery.plan_ms",),
    "xquery.enumerate": ("xquery.enumerate_ms",),
    "xquery.mqf_join": ("xquery.mqf_join_ms", "xquery.mqf_join_calls",
                        "xquery.mqf_rows_in", "xquery.mqf_tuples_out",
                        "xquery.mqf_rows_per_tuple"),
    "database.tag_lookup": ("database.tag_lookups", "database.lookup_ms"),
    "database.value_lookup": ("database.value_lookups",
                              "database.lookup_ms"),
}

_WARN_LIMIT = 5


def setup(workload, seed):
    """Build the program's state; returns (nalix, timings)."""
    started = perf_counter()
    document = generate_dblp(dblp_config(workload, seed))
    generated = perf_counter()
    database = Database()
    database.load_document(document)
    loaded = perf_counter()
    nalix = NaLIX(database)
    return nalix, {"generate_s": generated - started,
                   "load_s": loaded - generated}


class Tally:
    """Outcomes of the measured asks."""

    def __init__(self):
        self.latencies = []
        self.statuses = Counter()
        self.failed = 0

    def record(self, seconds, result, problem):
        self.latencies.append(seconds)
        self.statuses[result.status] += 1
        if problem is not None:
            self.failed += 1
            if self.failed <= _WARN_LIMIT:
                print(f"wrong: {result.sentence!r}: {problem}",
                      file=sys.stderr)


def task_round(nalix):
    """The nine reference sentences, checked against the task golds."""
    from oracle import task_expected
    from repro.evaluation.tasks import reference_sentences

    return [(sentence, task_expected(task_id, nalix.database))
            for task_id, sentence in reference_sentences()]


class SentencePipe:
    """The unseen sentences of a run, read from a sentences.py process.

    Iterating yields one cycle of (sentence, Expected) at a time until
    the stream ends.
    """

    def __init__(self, workload, seed):
        from sentences import CYCLE

        self.cycle = len(CYCLE)
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("sentences.py")),
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True,
        )
        # Wait for the first line: the generator's own set-up then never
        # competes with measured asks for the CPU.
        self._first = self.process.stdout.readline()
        if not self._first:
            self.close()
            raise RuntimeError("sentences.py produced no sentences")

    def __iter__(self):
        from oracle import Expected

        lines = itertools.chain([self._first], self.process.stdout)
        cycle = []
        for line in lines:
            if not line:
                break
            item = json.loads(line)
            cycle.append((item["sentence"], Expected(*item["expected"])))
            if len(cycle) == self.cycle:
                yield cycle
                cycle = []
        if cycle:
            yield cycle

    def close(self):
        self.process.terminate()
        self.process.wait()
        self.process.stdout.close()


def closed_loop(ask, rounds, seconds, tally, replay=None):
    """Ask whole rounds until ``seconds`` of ask() time have passed.

    Stops only between rounds, so the mix of sentence shapes is the same
    in every run.  ``replay(sentence, result)``, when given, runs after
    each correct answer and returns a problem or None.
    """
    from oracle import check_result

    busy = 0.0
    deadline = perf_counter() + 2 * seconds + 20
    for round_ in rounds:
        for sentence, expected in round_:
            started = perf_counter()
            result = ask(sentence)
            elapsed = perf_counter() - started
            busy += elapsed
            problem = check_result(expected, result)
            if replay is not None and problem is None:
                problem = replay(sentence, result)
            tally.record(elapsed, result, problem)
        if busy >= seconds or perf_counter() > deadline:
            break


def _call(tracer, name, function, *args, **kwargs):
    index = tracer.begin(name)
    try:
        return function(*args, **kwargs)
    finally:
        tracer.end(index)


def staged_digest(nalix, sentence, tracer):
    """ask()'s work as separate public calls, one span per stage.

    Returns the answer digest, which must equal ``ask()``'s.
    """
    from repro.analysis import analyze_query
    from repro.core.errors import TranslationError
    from repro.core.interface import QueryResult
    from repro.nlp.errors import ParseFailure
    from repro.obs.answers import answer_digest
    from repro.xquery.parser import parse_xquery

    presented = QueryResult(sentence)
    try:
        tree = _call(tracer, "nlp.parse", nalix.parse, sentence)
        _call(tracer, "core.classify", nalix.classify, tree)
        feedback = _call(tracer, "core.validate", nalix.validate, tree)
        if feedback.ok:
            translation = _call(tracer, "core.translate", nalix.translate,
                                tree)
            report = _call(tracer, "analysis.analyze", analyze_query,
                           translation.query,
                           suppress=nalix.analysis_suppress)
            if not report.errors:
                expr = _call(tracer, "xquery.parse", parse_xquery,
                             translation.text)
                presented.items = _call(tracer, "xquery.evaluate",
                                        nalix.evaluator.run, expr)
    except (ParseFailure, TranslationError):
        pass  # rejected, as ask() rejects it: the answer is empty
    index = tracer.begin("obs.digest")
    digest = answer_digest(presented.values())
    tracer.end(index)
    return digest


def end_to_end(tally):
    from measure import peak_rss_mb, percentile

    latencies = tally.latencies
    return {
        "qps": len(latencies) / sum(latencies),
        "latency_p50_ms": percentile(latencies, 0.5) * 1000,
        "latency_p90_ms": percentile(latencies, 0.9) * 1000,
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(tracer, tally, untraced_mean):
    """Per-layer metrics from the spans of the traced replays."""
    from spans import ATTRS, END, NAME, PARENT, START

    spans = tracer.spans
    roots = tracer.roots()
    self_times = tracer.self_times()
    total, own, calls, attrs = Counter(), Counter(), Counter(), Counter()
    ask_seconds = stage_seconds = 0.0
    asks = 0
    for index, span in enumerate(spans):
        name = span[NAME]
        duration = span[END] - span[START]
        if span[PARENT] is None:
            if name == "ask":
                ask_seconds += duration
                asks += 1
            continue
        if spans[roots[index]][NAME] != "stages":
            continue
        if span[PARENT] == roots[index]:
            stage_seconds += duration
        total[name] += duration
        own[name] += self_times[index]
        calls[name] += 1
        attrs.update(span[ATTRS] or {})

    def per_ask_ms(seconds):
        return seconds / asks * 1000

    rows_in, tuples_out = attrs["rows_in"], attrs["tuples_out"]
    measured = sum(tally.statuses.values())
    metrics = {f"{stage}_ms": per_ask_ms(total[stage]) for stage in STAGES}
    metrics.update({
        "xquery.plan_ms": per_ask_ms(total["xquery.plan"]),
        "xquery.enumerate_ms": per_ask_ms(own["xquery.enumerate"]),
        "xquery.mqf_join_ms": per_ask_ms(total["xquery.mqf_join"]),
        "xquery.mqf_join_calls": calls["xquery.mqf_join"] / asks,
        "xquery.mqf_rows_in": rows_in / asks,
        "xquery.mqf_tuples_out": tuples_out / asks,
        "xquery.mqf_rows_per_tuple": rows_in / tuples_out if tuples_out
        else 0.0,
        "database.tag_lookups": calls["database.tag_lookup"] / asks,
        "database.value_lookups": calls["database.value_lookup"] / asks,
        "database.lookup_ms": per_ask_ms(total["database.tag_lookup"]
                                         + total["database.value_lookup"]),
        "obs.ask_overhead_ms": per_ask_ms(ask_seconds - stage_seconds),
        "core.rejected_frac": tally.statuses["rejected"] / measured,
        "keyword_search.degraded_frac": tally.statuses["degraded"] / measured,
        "trace.overhead_frac": (ask_seconds / asks) / untraced_mean - 1,
    })
    for layer in tracer.missing:
        for name in LAYER_METRICS[layer]:
            metrics[name] = None
    coverage = stage_seconds / ask_seconds
    print(f"stage spans cover {coverage:.1%} of ask() wall time",
          file=sys.stderr)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(SCALES))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", metavar="PATH")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    nalix, timings = setup(args.workload, args.seed)
    from measure import emit

    emit("READY", timings)
    if args.setup_only:
        return 0

    warm = task_round(nalix)
    pipe = None
    try:
        if args.workload == "tasks-paper":
            rounds = itertools.repeat(warm)
        else:
            pipe = SentencePipe(args.workload, args.seed)
            rounds = iter(pipe)
        warm_tally = Tally()
        closed_loop(nalix.ask, [warm], 0.0, warm_tally)  # untimed warm pass
        tally = Tally()
        if args.trace:
            metrics = traced_run(nalix, rounds, args, tally)
        else:
            closed_loop(nalix.ask, rounds, args.seconds, tally)
            metrics = end_to_end(tally)
    finally:
        if pipe is not None:
            pipe.close()
    emit("RESULT", {"attempted": len(tally.latencies),
                    "failed": tally.failed, "warm_failed": warm_tally.failed,
                    "metrics": metrics})
    return 0


def traced_run(nalix, rounds, args, tally):
    """Half the run untraced, half traced; returns per-layer metrics.

    In the traced half every ask() runs in an ``ask`` span and is then
    replayed as separate stage calls under a ``stages`` span, with the
    evaluate entry points wrapped.  The untraced half is the base the
    tracing overhead is read against.
    """
    from spans import Tracer

    closed_loop(nalix.ask, rounds, args.seconds / 2, tally)
    untraced_mean = sum(tally.latencies) / len(tally.latencies)
    tracer = Tracer()

    def traced_ask(sentence):
        index = tracer.begin("ask", len(tally.latencies))
        try:
            return nalix.ask(sentence)
        finally:
            tracer.end(index)

    def replay(sentence, result):
        root = tracer.begin("stages", len(tally.latencies))
        try:
            digest = staged_digest(nalix, sentence, tracer)
        finally:
            tracer.end(root)
        if digest != result.answer_digest:
            return "the stage calls answer differently from ask()"
        return None

    tracer.install()
    try:
        closed_loop(traced_ask, rounds, args.seconds / 2, tally, replay)
    finally:
        tracer.uninstall()
    if args.trace_out:
        tracer.write_chrome(args.trace_out)
    return per_layer(tracer, tally, untraced_mean)


if __name__ == "__main__":
    sys.exit(main())
