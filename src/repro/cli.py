"""Command-line interface to the reproduction.

Subcommands::

    python -m repro query   [--data movies|bib|dblp|FILE] "SENTENCE"
    python -m repro explain [--data ...] [--json] "SENTENCE"
    python -m repro repl    [--data ...]          # interactive loop
    python -m repro xquery  [--data ...] "QUERY"  # raw Schema-Free XQuery
    python -m repro tasks   [--books N]           # run the 9 XMP tasks
    python -m repro stats   [--books N] [--format table|json|prom|chrome]
    python -m repro profile [--hz N] [--repeat N] "SENTENCE"
    python -m repro lint    [--data ...] [--tasks|--corpus|--self]
                            [--stdin] [--xquery] [--format text|json|github]
                            ["SENTENCE" ...]
    python -m repro lint-src [PATH ...] [--strict] [--format text|json|github]
                            [--suppress-file FILE] [--rules]
    python -m repro study   [--participants N] [--seed S]
    python -m repro generate [--books N] [--seed S] [--out FILE]
    python -m repro serve   [--port P] [--max-inflight N] [--tenant-rate R]
    python -m repro loadgen [--url URL] [--concurrency N] [--requests N]
    python -m repro replay  LOG [--url URL] [--format text|json] [--github]

Each command builds its database from the named built-in dataset (or an
XML file path) and prints human-readable output; exit status is non-zero
when a query is rejected.

Observability flags (see README.md "Observability"): ``--trace`` prints
the span tree of each query, ``--metrics`` dumps the process metrics
registry as JSON on exit, and ``--audit-log PATH`` appends one JSONL
record per query.  ``explain`` (or ``query --explain``) renders the
full word → token → clause lineage report plus per-operator plan
statistics; ``stats --format prom|chrome|json`` exports metrics in the
Prometheus text format, traces as Chrome trace-event JSON (load in
chrome://tracing or Perfetto), or a plain JSON snapshot.

Resilience flags (see README.md "Resilience"): ``--timeout SECONDS``
runs each query under the default budget with the given deadline, and
``--inject-fault STAGE[:N|:p=P,seed=S]`` (repeatable) arms the
deterministic fault-injection harness for chaos testing.

Profiling & memory (see README.md "Profiling"): ``query --profile``
samples the query's stacks into a ``flamegraph.pl``-compatible
collapsed-stack file, the ``profile`` subcommand re-asks a query N
times and emits collapsed or speedscope output, and ``--memory`` turns
on per-stage tracemalloc accounting.  Performance is measured by the
end-to-end benchmark in ``bench/`` (``bench/run.py``, compared with
``bench/compare.py`` against the workloads ``BENCHMARK.json`` declares).

Serving (see README.md "Serving"): ``serve`` runs the concurrent HTTP
query service (``/query``, ``/metrics``, ``/healthz``, ``/readyz``,
``/statusz``) with per-tenant admission control and graceful drain on
SIGTERM; ``loadgen`` drives a running server with N concurrent clients
and cross-checks its ``/metrics`` percentiles; ``stats --url`` reads a
live server's exposition text instead of replaying queries locally.

Correctness observability (see README.md "Correctness observability"):
``serve`` runs a golden-query canary by default on the baselined dblp
dataset (``--canary`` / ``--no-canary`` / ``--canary-interval`` tune
it), and ``replay`` re-executes a recorded JSONL audit/access log
against the current build — or a live ``--url`` — and diffs the answer
digests, statuses, and latency quantiles (nonzero exit on answer
drift).
"""

from __future__ import annotations

import argparse
import sys

from repro.core.interface import NaLIX
from repro.data import DblpConfig, bib_document, generate_dblp, movies_document
from repro.database.store import Database
from repro.obs.audit import STAGES, AuditLog
from repro.obs.explain import explain
from repro.obs.export import LATENCIES, chrome_trace_json, prometheus_text
from repro.obs.memory import activate_memory_tracking
from repro.obs.metrics import METRICS
from repro.obs.profiler import (
    DEFAULT_HZ,
    ProfileSpec,
    collapsed_text,
    merge_profiles,
    speedscope_document,
)
from repro.obs.quantiles import nearest_rank
from repro.resilience.faults import FaultPlan
from repro.xquery.errors import XQueryError
from repro.xquery.evaluator import evaluate_query
from repro.xquery.values import string_value


def load_database(spec, books=120, seed=7):
    """Build a Database from a dataset name or an XML file path."""
    database = Database()
    if spec == "movies":
        database.load_document(movies_document())
    elif spec == "bib":
        database.load_document(bib_document())
    elif spec == "dblp":
        database.load_document(generate_dblp(DblpConfig(books=books, seed=seed)))
    else:
        database.load_file(spec)
    return database


def _open_audit_log(args):
    path = getattr(args, "audit_log", None)
    if not path:
        return None
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise SystemExit(f"repro: cannot open audit log {path!r}: {exc}")
    return AuditLog(path, actor="cli")


def _print_result(result, show_xquery=True, show_trace=False):
    if not result.ok:
        print(result.render_feedback())
        if show_trace and result.trace is not None:
            print(result.trace.render())
        return False
    if show_xquery:
        print("XQuery:", result.xquery_text)
    for warning in result.warnings:
        print(warning.render())
    values = result.values()
    print(f"{len(values)} result(s):")
    for value in values[:50]:
        print(" ", value)
    if len(values) > 50:
        print(f"  ... and {len(values) - 50} more")
    if show_trace and result.trace is not None:
        print(result.trace.render())
    return True


def _finish(args, audit, exit_code):
    """Shared teardown: close the audit log, honour ``--metrics``."""
    if audit is not None:
        audit.close()
        print(f"audit log: {audit.path}")
    if getattr(args, "metrics", False):
        print(METRICS.to_json())
    return exit_code


def _build_fault_plan(args):
    specs = getattr(args, "inject_fault", None)
    if not specs:
        return None
    try:
        return FaultPlan([FaultPlan.parse_spec(spec) for spec in specs])
    except ValueError as error:
        raise SystemExit(f"repro: {error}")


def _profile_spec_from(args):
    if not getattr(args, "profile", False):
        return None
    try:
        return ProfileSpec(hz=args.profile_hz)
    except ValueError as error:
        raise SystemExit(f"repro: {error}")


def _write_profile(profiler, out):
    """Write one query's collapsed stacks; print the span attribution."""
    out = out or "profile.collapsed"
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(profiler.collapsed_text())
    print(
        f"profile: {len(profiler.samples)} samples @ {profiler.hz:g} Hz "
        f"-> {out}"
    )
    counts = profiler.span_sample_counts()
    if counts:
        print(
            "profile spans: "
            + "  ".join(
                f"{name}={counts[name]}"
                for name in sorted(counts, key=counts.get, reverse=True)
            )
        )


def cmd_query(args):
    database = load_database(args.data, books=args.books, seed=args.seed)
    audit = _open_audit_log(args)
    nalix = NaLIX(database, audit_log=audit, fault_plan=_build_fault_plan(args))
    result = nalix.ask(
        args.sentence,
        timeout=args.timeout,
        profile=_profile_spec_from(args),
        memory=args.memory,
    )
    ok = _print_result(
        result,
        show_xquery=not args.quiet,
        show_trace=args.trace,
    )
    if args.explain:
        print()
        print(explain(result).render_text())
    if result.profile is not None:
        _write_profile(result.profile, args.profile_out)
    return _finish(args, audit, 0 if ok else 1)


def cmd_explain(args):
    """Full provenance report: word -> token -> clause lineage + plan."""
    database = load_database(args.data, books=args.books, seed=args.seed)
    audit = _open_audit_log(args)
    nalix = NaLIX(database, audit_log=audit)
    result = nalix.ask(args.sentence, evaluate=not args.no_evaluate,
                       timeout=args.timeout, memory=args.memory)
    report = explain(result)
    print(report.to_json() if args.json else report.render_text())
    return _finish(args, audit, 0 if result.ok else 1)


def cmd_repl(args):
    database = load_database(args.data, books=args.books, seed=args.seed)
    audit = _open_audit_log(args)
    nalix = NaLIX(database, audit_log=audit, fault_plan=_build_fault_plan(args))
    print(database)
    print("Type an English query (empty line to quit).")
    while True:
        try:
            line = input("nalix> ").strip()
        except EOFError:
            break
        if not line:
            break
        _print_result(
            nalix.ask(line, timeout=args.timeout, memory=args.memory),
            show_xquery=not args.quiet,
            show_trace=args.trace,
        )
    return _finish(args, audit, 0)


def cmd_xquery(args):
    database = load_database(args.data, books=args.books, seed=args.seed)
    try:
        items = evaluate_query(database, args.query)
    except XQueryError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(f"{len(items)} item(s):")
    for item in items[:50]:
        print(" ", string_value(item))
    if len(items) > 50:
        print(f"  ... and {len(items) - 50} more")
    return 0


def cmd_tasks(args):
    from repro.evaluation.metrics import harmonic_mean, precision_recall
    from repro.evaluation.tasks import TASKS

    database = load_database("dblp", books=args.books, seed=args.seed)
    audit = _open_audit_log(args)
    nalix = NaLIX(database, audit_log=audit)
    failures = 0
    for task in TASKS:
        gold = task.gold(database)
        phrasing = task.good_phrasings()[0]
        result = nalix.ask(phrasing.text, memory=args.memory)
        if not result.ok:
            print(f"{task.task_id}: REJECTED — {phrasing.text}")
            failures += 1
            continue
        precision, recall = precision_recall(
            result.distinct_items(), gold, ordered=task.ordered
        )
        score = harmonic_mean(precision, recall)
        print(
            f"{task.task_id}: P={precision:.2f} R={recall:.2f} "
            f"F={score:.2f} — {phrasing.text}"
        )
        if score < 0.5:
            failures += 1
    return _finish(args, audit, 1 if failures else 0)


def _emit(text, out):
    """Write to ``--out PATH`` (with a note) or stdout."""
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {len(text)} bytes to {out}")
    else:
        sys.stdout.write(text)


def cmd_profile(args):
    """Re-ask one query N times under the sampling profiler.

    A single ask usually lasts a few milliseconds — too short for a
    dense flamegraph — so this command merges the samples of
    ``--repeat`` runs into one collapsed-stack (or speedscope)
    document.  The span-attribution summary goes to stderr so the
    collapsed output on stdout stays pipeable into ``flamegraph.pl``.
    """
    import json as json_module

    database = load_database(args.data, books=args.books, seed=args.seed)
    nalix = NaLIX(database)
    try:
        spec = ProfileSpec(hz=args.hz)
    except ValueError as error:
        raise SystemExit(f"repro: {error}")
    repeats = max(1, args.repeat)
    profilers = []
    result = None
    for _ in range(repeats):
        result = nalix.ask(args.sentence, profile=spec, memory=args.memory)
        profilers.append(result.profile)
    samples = merge_profiles(profilers)
    if args.format == "speedscope":
        document = speedscope_document(
            samples, 1.0 / args.hz, name=args.sentence
        )
        text = json_module.dumps(document, indent=2) + "\n"
    else:
        text = collapsed_text(samples)
    _emit(text, args.out)
    counts = {}
    for profiler in profilers:
        if profiler is None:
            continue
        for name, value in profiler.span_sample_counts().items():
            counts[name] = counts.get(name, 0) + value
    print(
        f"profile: {len(samples)} samples over {repeats} run(s) "
        f"@ {args.hz:g} Hz",
        file=sys.stderr,
    )
    if counts:
        print(
            "span samples: "
            + "  ".join(
                f"{name}={counts[name]}"
                for name in sorted(counts, key=counts.get, reverse=True)
            ),
            file=sys.stderr,
        )
    if args.memory and result is not None and result.memory is not None:
        rss = result.memory.peak_rss_bytes / (1024.0 * 1024.0)
        print(f"peak rss: {rss:.1f} MiB", file=sys.stderr)
    return 0 if result is not None and result.ok else 1


def _parse_dump_signal(name):
    """``--dump-on SIGUSR1`` → the signal number, or a clear error."""
    import signal as signal_module

    if name is None:
        return None
    candidate = name.upper()
    if not candidate.startswith("SIG"):
        candidate = "SIG" + candidate
    number = getattr(signal_module, candidate, None)
    if number is None:
        raise SystemExit(f"repro: unknown signal {name!r} for --dump-on")
    return number


def cmd_serve(args):
    """Run the concurrent HTTP query service until SIGTERM/SIGINT."""
    from repro.evaluation.goldens import goldens_for
    from repro.serve import ReproServer, ServeConfig

    database = load_database(args.data, books=args.books, seed=args.seed)
    # The golden-query canary defaults on for the baselined dblp
    # dataset (where committed golden digests exist); --canary forces
    # it on elsewhere (self-baselining), --no-canary turns it off.
    canary = args.canary if args.canary is not None else args.data == "dblp"
    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        tenant_rate=args.tenant_rate,
        tenant_burst=args.tenant_burst,
        tenant_inflight=args.tenant_inflight,
        default_timeout=args.timeout
        if args.timeout is not None
        else ServeConfig().default_timeout,
        max_timeout=args.max_timeout,
        audit_path=args.access_log,
        allow_xquery=args.allow_xquery,
        drain_grace=args.drain_grace,
        fault_plan=args.inject_fault or None,
        brownout=not args.no_brownout,
        watchdog=not args.no_watchdog,
        watchdog_interval=args.watchdog_interval,
        watchdog_soft=args.watchdog_soft,
        watchdog_hard=args.watchdog_hard,
        breaker_threshold=args.breaker_threshold,
        breaker_open_seconds=args.breaker_open,
        slos=(() if args.slo and args.slo[0].lower() in ("none", "off")
              else args.slo or None),
        slo_fast_burn=args.slo_fast_burn,
        recorder=not args.no_recorder,
        recorder_max_bytes=args.recorder_bytes,
        head_sample_rate=args.head_sample_rate,
        dump_dir=args.dump_dir,
        dump_signal=_parse_dump_signal(args.dump_on),
        canary=canary,
        canary_interval=args.canary_interval,
        canary_goldens=(
            goldens_for(args.data, args.books, args.seed) if canary else None
        ),
    )
    try:
        server = ReproServer(database, config=config)
    except ValueError as error:
        raise SystemExit(f"repro: {error}")

    def announce():
        print(f"repro serve: listening on {server.url} "
              f"(max {config.max_inflight} queries in flight"
              + (f", {config.tenant_rate:g}/s per tenant"
                 if config.tenant_rate else "")
              + ")")
        if config.audit_path:
            print(f"repro serve: access log -> {config.audit_path}")
        if config.dump_dir:
            print(f"repro serve: flight-recorder dumps -> {config.dump_dir}"
                  + (f" (and on {args.dump_on})" if args.dump_on else ""))
        if config.fault_plan:
            print(f"repro serve: CHAOS — injecting faults: "
                  f"{', '.join(config.fault_plan)}")
        if server.canary is not None:
            goldens = "committed goldens" if config.canary_goldens else \
                "self-baselined goldens"
            print(f"repro serve: canary sweeping every "
                  f"{config.canary_interval:g}s ({goldens})")
        # Under --port 0 the banner is the only place the port shows
        # up, so a supervisor reading a pipe must see it now.
        sys.stdout.flush()

    signum = server.serve_until_signal(on_ready=announce)
    print(f"repro serve: received signal {signum}, drained and stopped")
    return 0


def cmd_replay(args):
    """Differential replay: re-ask a recorded log, diff the answers."""
    from repro.serve.replay import ReplayConfig, run_replay

    config = ReplayConfig(
        args.log,
        url=args.url,
        tenant=args.tenant,
        timeout=args.timeout,
        limit=args.limit,
        rotated=not args.no_rotated,
    )
    nalix = None
    if not args.url:
        database = load_database(args.data, books=args.books, seed=args.seed)
        nalix = NaLIX(database)
    try:
        report = run_replay(config, nalix=nalix)
    except OSError as error:
        raise SystemExit(f"repro: cannot read {args.log!r}: {error}")
    if args.format == "json":
        _emit(report.to_json() + "\n", args.out)
    else:
        _emit(report.render_text() + "\n", args.out)
    if args.github:
        for line in report.github_annotations():
            print(line)
    return report.exit_code


def cmd_top(args):
    """Live ops dashboard over a running ``repro serve`` instance."""
    from repro.serve.top import TopConfig, run_top

    config = TopConfig(
        args.url,
        interval=args.interval,
        once=args.once,
        color=False if args.no_color else None,
    )
    try:
        return run_top(config)
    except KeyboardInterrupt:
        return 0


def cmd_loadgen(args):
    """Drive a running server with N concurrent clients and report."""
    import json as json_module

    from repro.serve import LoadgenConfig, run_loadgen

    try:
        config = LoadgenConfig(
            args.url,
            concurrency=args.concurrency,
            requests=None if args.duration is not None else args.requests,
            duration=args.duration,
            task_mix=args.sentence or None,
            tenant=args.tenant,
            tenants=args.tenant.split(",") if "," in args.tenant else None,
            explain_every=args.explain_every,
            timeout=args.timeout,
            retries=args.retries,
            hedge=args.hedge,
            retry_seed=args.retry_seed,
        )
    except ValueError as error:
        raise SystemExit(f"repro: {error}")
    report = run_loadgen(config)
    if args.json:
        _emit(json_module.dumps(report.to_dict(), indent=2, sort_keys=True)
              + "\n", args.out)
    else:
        _emit(report.render_text() + "\n", args.out)
    if report.internal_errors or report.unclassified_5xx:
        return 1
    if (args.min_availability is not None
            and report.availability < args.min_availability):
        print(
            f"repro loadgen: availability {report.availability * 100:.2f}% "
            f"below the required {args.min_availability * 100:.2f}%",
            file=sys.stderr,
        )
        return 1
    return 0


def _resilience_summary(metrics):
    """Self-healing summary lines from a scraped ``/metrics`` parse.

    Surfaces the serving resilience layer — breaker states, brownout
    level, watchdog stuck/expired/recovered, client retries/hedges,
    injected faults — so ``repro stats --url`` answers "is the server
    healing itself?" without grepping the full table.
    """
    from repro.obs.export import prometheus_metric_name, \
        prometheus_sample_value

    def value(name):
        return prometheus_sample_value(
            metrics, prometheus_metric_name(name)
        )

    lines = []
    states = {0: "closed", 1: "half-open", 2: "open"}
    breaker_bits = []
    for klass in ("internal", "exhausted"):
        state = value(f"serve.breaker.{klass}.state")
        if state is not None:
            opened = value(f"serve.breaker.{klass}.opened") or 0
            breaker_bits.append(
                f"{klass}={states.get(int(state), state)} "
                f"(opened {int(opened)}x)"
            )
    if breaker_bits:
        lines.append("breakers   " + "  ".join(breaker_bits))
    level = value("serve.brownout.level")
    if level is not None:
        lines.append(
            f"brownout   level {int(level)}"
            f" (ascends {int(value('serve.brownout.ascends') or 0)},"
            f" pre-degraded"
            f" {int(value('serve.brownout.pre_degraded') or 0)})"
        )
    stuck = value("serve.watchdog.stuck")
    if stuck is not None:
        lines.append(
            f"watchdog   stuck {int(stuck)}, "
            f"expired {int(value('serve.watchdog.expired') or 0)}, "
            f"recovered {int(value('serve.watchdog.recovered') or 0)}"
        )
    retries = value("serve.client.retries")
    if retries:
        lines.append(
            f"client     retries {int(retries)}, "
            f"hedges {int(value('serve.client.hedges') or 0)} "
            f"(won {int(value('serve.client.hedge_wins') or 0)})"
        )
    injected = value("resilience.faults.injected")
    delayed = value("resilience.faults.delayed")
    if injected or delayed:
        lines.append(
            f"chaos      injected {int(injected or 0)}, "
            f"delayed {int(delayed or 0)}"
        )
    return lines


def _slo_summary(metrics):
    """Per-SLO burn-rate lines from a scraped ``/metrics`` parse.

    Returns ``None`` when the server exposes no ``repro_slo_*`` family
    at all — i.e. it predates the SLO engine — so the caller can say
    so explicitly instead of silently showing nothing.
    """
    burn = metrics.get("repro_slo_burn_rate")
    if burn is None:
        return None
    budgets = {
        labels.get("slo"): value
        for labels, value in
        metrics.get("repro_slo_error_budget_remaining", {}).get(
            "samples", ()
        )
    }
    alerts = {
        labels.get("slo"): value
        for labels, value in
        metrics.get("repro_slo_fast_burn_alert", {}).get("samples", ())
    }
    rates = {}
    for labels, value in burn.get("samples", ()):
        rates.setdefault(labels.get("slo"), {})[
            labels.get("window")] = value
    lines = []
    for name in sorted(rates):
        windows = rates[name]
        alerting = alerts.get(name, 0)
        lines.append(
            f"{name:<28} burn fast {windows.get('fast', 0.0):6.2f} / "
            f"slow {windows.get('slow', 0.0):6.2f}  "
            f"budget {budgets.get(name, 1.0) * 100:5.1f}%  "
            f"{'ALERT' if alerting else 'ok'}"
        )
    return lines


def _stats_from_log(args):
    """``stats --from-log``: summarize a recorded JSONL audit/access log.

    Reads through the shared hardened parser
    (:func:`repro.obs.audit.iter_records`) — rotated ``.1`` sibling
    chained, truncated tail tolerated, corrupt rows counted — instead
    of an ad-hoc ``json.loads`` loop, so ``stats`` and ``replay`` agree
    on what a log contains.
    """
    import json as json_module

    from repro.obs.audit import ReadStats, iter_records

    if args.format not in ("table", "json"):
        raise SystemExit(
            "repro: stats --from-log supports --format table|json"
        )
    read_stats = ReadStats()
    status_counts = {}
    error_classes = {}
    tenants = {}
    events = {}
    seconds = []
    queries = 0
    with_digest = 0
    try:
        for record in iter_records(args.from_log, stats=read_stats):
            event = record.get("event")
            if event:
                events[event] = events.get(event, 0) + 1
                continue
            queries += 1
            status = record.get("status") or "unknown"
            status_counts[status] = status_counts.get(status, 0) + 1
            if record.get("answer_digest"):
                with_digest += 1
            value = record.get("total_seconds", record.get("seconds"))
            if value is not None:
                seconds.append(value)
            tenant = record.get("tenant")
            if tenant:
                tenants[tenant] = tenants.get(tenant, 0) + 1
            error_class = record.get("error_class")
            if error_class:
                error_classes[error_class] = (
                    error_classes.get(error_class, 0) + 1
                )
    except OSError as error:
        raise SystemExit(f"repro: cannot read {args.from_log!r}: {error}")
    quantiles = None
    if seconds:
        ordered = sorted(seconds)
        quantiles = {
            "p50": nearest_rank(ordered, 0.50),
            "p95": nearest_rank(ordered, 0.95),
            "p99": nearest_rank(ordered, 0.99),
        }
    out = getattr(args, "out", None)
    if args.format == "json":
        _emit(
            json_module.dumps(
                {
                    "log_path": args.from_log,
                    "files": read_stats.files,
                    "records": read_stats.records,
                    "corrupt_skipped": read_stats.skipped,
                    "truncated_tail": read_stats.truncated,
                    "queries": queries,
                    "with_answer_digest": with_digest,
                    "statuses": status_counts,
                    "error_classes": error_classes,
                    "tenants": tenants,
                    "events": events,
                    "latency_seconds": quantiles,
                },
                indent=2, sort_keys=True,
            )
            + "\n",
            out,
        )
        return 0
    lines = [
        f"repro stats — {args.from_log} "
        f"({read_stats.records} records, {read_stats.files} files)",
        f"queries: {queries}  with answer digest: {with_digest}",
        "statuses: "
        + (
            "  ".join(
                f"{key}={value}"
                for key, value in sorted(status_counts.items())
            )
            or "none"
        ),
    ]
    if quantiles is not None:
        lines.append(
            "latency: "
            + "  ".join(
                f"{name} {quantiles[name] * 1000:.2f} ms"
                for name in ("p50", "p95", "p99")
            )
        )
    if error_classes:
        lines.append(
            "error classes: "
            + "  ".join(
                f"{key}={value}"
                for key, value in sorted(error_classes.items())
            )
        )
    if tenants:
        lines.append(
            "tenants: "
            + "  ".join(
                f"{key}={value}" for key, value in sorted(tenants.items())
            )
        )
    if events:
        lines.append(
            "events: "
            + "  ".join(
                f"{key}={value}" for key, value in sorted(events.items())
            )
        )
    if read_stats.skipped or read_stats.truncated:
        lines.append(
            f"log health: {read_stats.skipped} corrupt rows skipped, "
            f"{read_stats.truncated} truncated tail"
        )
    _emit("\n".join(lines) + "\n", out)
    return 0


def _stats_from_url(args):
    """``stats --url``: read a live server's ``/metrics`` exposition."""
    import json as json_module
    import urllib.error
    import urllib.request

    from repro.obs.export import parse_prometheus_text

    import time as time_module

    from repro.resilience.retry import RetryPolicy

    url = args.url
    if not url.rstrip("/").endswith("/metrics"):
        url = url.rstrip("/") + "/metrics"

    def scrape():
        # Scrapes ride the shared retry policy: a server mid-restart or
        # briefly overloaded should not fail an ops look-in.
        policy = RetryPolicy(max_attempts=3, seed=0)
        attempt = 0
        while True:
            attempt += 1
            try:
                with urllib.request.urlopen(url, timeout=10.0) as response:
                    return response.read().decode("utf-8")
            except (urllib.error.URLError, OSError) as error:
                if not policy.should_retry(attempt, transport_error=True):
                    raise SystemExit(
                        f"repro: cannot scrape {url!r}: {error}"
                    )
                time_module.sleep(policy.backoff_seconds(attempt))

    def render_once():
        text = scrape()
        out = getattr(args, "out", None)
        if args.format == "prom":
            _emit(text, out)
            return 0
        metrics = parse_prometheus_text(text)
        if args.format == "json":
            document = {
                name: {
                    "type": entry["type"],
                    "samples": [
                        {"labels": labels, "value": value}
                        for labels, value in entry["samples"]
                    ],
                }
                for name, entry in sorted(metrics.items())
            }
            _emit(json_module.dumps(document, indent=2, sort_keys=True)
                  + "\n", out)
            return 0
        print(f"repro stats — scraped {url} ({len(metrics)} metrics)\n")
        slo_lines = _slo_summary(metrics)
        if slo_lines is None:
            # A server predating the SLO engine: say so loudly and exit
            # nonzero so dashboards/scripts notice the missing family
            # instead of silently reporting "no SLOs configured".
            print("slo:")
            print("  this server exposes no repro_slo_* metrics — it "
                  "predates the SLO engine")
            print("  (upgrade the server, or start it without --slo none, "
                  "to get burn rates)")
            print()
        elif slo_lines:
            print("slo:")
            for line in slo_lines:
                print("  " + line)
            print()
        summary = _resilience_summary(metrics)
        if summary:
            print("self-healing:")
            for line in summary:
                print("  " + line)
            print()
        print(f"{'metric':<54}{'type':>9}{'value':>14}")
        print("-" * 77)
        for name, entry in sorted(metrics.items()):
            for labels, value in entry["samples"]:
                label_text = ",".join(
                    f"{key}={val}" for key, val in sorted(labels.items())
                )
                shown = name + (f"{{{label_text}}}" if label_text else "")
                print(f"{shown:<54}{entry['type']:>9}{value:>14.6g}")
        return 3 if slo_lines is None else 0

    watch = getattr(args, "watch", None)
    if not watch:
        return render_once()
    # --watch N: refresh the same report every N seconds until Ctrl-C.
    code = 0
    try:
        while True:
            print("\x1b[2J\x1b[H", end="")
            code = render_once()
            time_module.sleep(watch)
    except KeyboardInterrupt:
        return code


def cmd_stats(args):
    """Replay the XMP task phrasings; report per-stage statistics.

    ``--format table`` (default) prints the human-readable breakdown;
    ``json`` dumps the metrics snapshot + sliding latency windows;
    ``prom`` emits Prometheus text exposition; ``chrome`` emits Chrome
    trace-event JSON of every replayed query (one thread lane each).
    With ``--url`` the command scrapes a live ``repro serve`` instance's
    ``/metrics`` endpoint instead of replaying queries locally, and
    ``--from-log`` summarizes a recorded JSONL audit/access log through
    the shared hardened reader.
    """
    import json as json_module

    from repro.evaluation.tasks import TASKS

    if getattr(args, "from_log", None):
        return _stats_from_log(args)
    if args.url:
        return _stats_from_url(args)

    database = load_database("dblp", books=args.books, seed=args.seed)
    audit = _open_audit_log(args)
    nalix = NaLIX(database, audit_log=audit)

    stage_stats = {
        name: {"calls": 0, "seconds": [], "errors": 0, "alloc_bytes": []}
        for name in STAGES
    }
    status_counts = {"ok": 0, "degraded": 0, "rejected": 0, "failed": 0}
    category_counts = {}
    ask_seconds = []
    traces = []
    sentences = []
    peak_rss = 0
    query_allocs = []

    queries = 0
    for task in TASKS:
        phrasings = (
            task.good_phrasings() if args.good_only else task.phrasings
        )
        for phrasing in phrasings:
            result = nalix.ask(phrasing.text, memory=args.memory)
            queries += 1
            status_counts[result.status] += 1
            ask_seconds.append(result.total_seconds)
            traces.append(result.trace)
            sentences.append(phrasing.text)
            for message in result.errors:
                category_counts[message.code] = (
                    category_counts.get(message.code, 0) + 1
                )
            for span in result.trace.iter_spans():
                if span.name not in stage_stats:
                    continue
                entry = stage_stats[span.name]
                entry["calls"] += 1
                entry["seconds"].append(span.duration_seconds)
                if span.status != "ok":
                    entry["errors"] += 1
            memory = result.memory
            if memory is not None:
                peak_rss = max(peak_rss, memory.peak_rss_bytes)
                if memory.alloc_bytes is not None:
                    query_allocs.append(memory.alloc_bytes)
                for stage_name, stage_memory in memory.stages.items():
                    if stage_name in stage_stats:
                        stage_stats[stage_name]["alloc_bytes"].append(
                            stage_memory["alloc_bytes"]
                        )

    out = getattr(args, "out", None)
    if args.format == "prom":
        _emit(
            prometheus_text(
                METRICS.snapshot(), extra_lines=LATENCIES.prometheus_lines()
            ),
            out,
        )
        return _finish(args, audit, 0)
    if args.format == "chrome":
        _emit(
            chrome_trace_json(traces, indent=2, names=sentences) + "\n", out
        )
        return _finish(args, audit, 0)
    if args.format == "json":
        _emit(
            json_module.dumps(
                {
                    "metrics": METRICS.snapshot(),
                    "latency_windows": LATENCIES.snapshot(),
                },
                indent=2,
                sort_keys=True,
            )
            + "\n",
            out,
        )
        return _finish(args, audit, 0)

    print(
        f"repro stats — {len(TASKS)} tasks, {queries} queries "
        f"(dblp, {args.books} books)\n"
    )
    header = (
        f"{'stage':<14}{'calls':>7}{'mean ms':>10}{'p50 ms':>10}"
        f"{'p95 ms':>10}{'p99 ms':>10}{'max ms':>10}{'errors':>8}"
    )
    if args.memory:
        header += f"{'alloc KiB':>11}"
    print(header)
    print("-" * len(header))
    for name in STAGES:
        entry = stage_stats[name]
        if not entry["calls"]:
            continue
        timings = sorted(entry["seconds"])
        mean = sum(timings) / len(timings)
        row = (
            f"{name:<14}{entry['calls']:>7}{mean * 1000:>10.2f}"
            f"{nearest_rank(timings, 0.50) * 1000:>10.2f}"
            f"{nearest_rank(timings, 0.95) * 1000:>10.2f}"
            f"{nearest_rank(timings, 0.99) * 1000:>10.2f}"
            f"{timings[-1] * 1000:>10.2f}"
            f"{entry['errors']:>8}"
        )
        if args.memory:
            allocs = entry["alloc_bytes"]
            mean_alloc = sum(allocs) / len(allocs) / 1024.0 if allocs else 0.0
            row += f"{mean_alloc:>11.1f}"
        print(row)
    if ask_seconds:
        total_mean = sum(ask_seconds) / len(ask_seconds)
        print(f"\nend-to-end mean: {total_mean * 1000:.2f} ms/query")
    if args.memory:
        mean_alloc = (
            sum(query_allocs) / len(query_allocs) if query_allocs else 0.0
        )
        print(
            f"memory: peak rss {peak_rss / (1024.0 * 1024.0):.1f} MiB, "
            f"mean alloc {mean_alloc / 1024.0:.1f} KiB/query"
        )
    print(
        "status: "
        + "  ".join(f"{key}={value}" for key, value in status_counts.items())
    )
    if category_counts:
        print("failures by category:")
        for code in sorted(category_counts, key=category_counts.get,
                           reverse=True):
            print(f"  {code:<24}{category_counts[code]:>4}")
    resilience = {
        name: value
        for name, value in METRICS.snapshot()["counters"].items()
        if name.startswith("resilience.") and value
    }
    if resilience:
        print("resilience counters:")
        for name in sorted(resilience):
            print(f"  {name:<40}{resilience[name]:>6}")
    return _finish(args, audit, 0)


def cmd_lint(args):
    """qlint: static-analyze queries and/or the pipeline tables.

    Inputs compose: positional sentences (English, or raw XQuery with
    ``--xquery``), ``--stdin`` batch lines, the nine benchmark tasks
    (``--tasks``), the full golden corpus (``--corpus``), and the
    pipeline-table self-check (``--self``).  With no inputs at all the
    command runs ``--self --corpus`` — the same checks as CI's
    ``lint-queries`` job.  Exit status is non-zero when any error
    finding fires (or any warning, with ``--strict``).
    """
    import json as json_module

    from repro.analysis import (
        RULES,
        analyze_query,
        check_pipeline_consistency,
        iter_corpus,
    )

    suppress = tuple(args.suppress or ())
    unknown = sorted(set(suppress) - set(RULES))
    if unknown:
        raise SystemExit(
            f"repro: unknown rule id(s): {', '.join(unknown)}"
        )

    sentences = list(args.sentence or ())
    if args.stdin:
        sentences.extend(
            line.strip() for line in sys.stdin if line.strip()
        )
    jobs = []  # (dataset, label, text, kind)
    kind = "xquery" if args.xquery else "english"
    for text in sentences:
        jobs.append((args.data, text, text, kind))
    corpus = args.corpus
    self_check = args.self_check
    if not jobs and not args.tasks and not corpus and not self_check:
        corpus = self_check = True
    if args.tasks and not corpus:
        from repro.evaluation.tasks import TASKS

        for task in TASKS:
            for index, phrasing in enumerate(task.good_phrasings()):
                jobs.append(
                    ("dblp", f"{task.task_id}[{index}]",
                     phrasing.text, "english")
                )
    if corpus:
        for dataset, label, text in iter_corpus():
            jobs.append((dataset, label, text, "english"))

    reports = []  # (label, AnalysisReport | None, note)
    if self_check:
        reports.append(
            ("pipeline-tables", check_pipeline_consistency(), None)
        )
    interfaces = {}

    def interface_for(dataset):
        if dataset not in interfaces:
            database = load_database(
                dataset, books=args.books, seed=args.seed
            )
            interfaces[dataset] = NaLIX(
                database, analysis_suppress=suppress
            )
        return interfaces[dataset]

    for dataset, label, text, job_kind in jobs:
        if job_kind == "xquery":
            try:
                reports.append(
                    (label, analyze_query(text, suppress=suppress), None)
                )
            except Exception as error:
                reports.append(
                    (label, None, f"unparseable XQuery: {error}")
                )
            continue
        result = interface_for(dataset).ask(text, evaluate=False)
        if result.analysis is not None:
            reports.append((label, result.analysis, None))
        else:
            codes = ", ".join(
                message.code for message in result.errors
            ) or result.status
            reports.append(
                (label, None,
                 f"the query did not reach the analyzer ({codes})")
            )

    error_count = sum(
        len(report.errors) for _, report, _ in reports if report is not None
    )
    warning_count = sum(
        len(report.warnings) for _, report, _ in reports
        if report is not None
    )
    unanalyzed = [label for label, report, _ in reports if report is None]

    if args.format == "json":
        document = []
        for label, report, note in reports:
            if report is not None:
                entry = report.to_dict()
                entry["xquery"] = entry.pop("subject", None)
            else:
                entry = {"error": note}
            entry["subject"] = label
            document.append(entry)
        print(json_module.dumps(document, indent=2))
    elif args.format == "github":
        for label, report, note in reports:
            if report is not None:
                for line in report.github_lines(context=label):
                    print(line)
            else:
                print(f"::error title=lint::{note} [{label}]")
    else:
        for label, report, note in reports:
            if note is not None:
                print(f"{label}: error — {note}")
            elif report.findings:
                print(f"{label}:")
                for finding in report.findings:
                    print(f"  {finding.render()}")
        print(
            f"linted {len(reports)} subject(s): "
            f"{error_count} error(s), {warning_count} warning(s)"
            + (f", {len(unanalyzed)} unanalyzable" if unanalyzed else "")
        )
    failed = (
        bool(unanalyzed)
        or error_count
        or (args.strict and warning_count)
    )
    return 1 if failed else 0


def cmd_lint_src(args):
    """srclint: concurrency/resource-safety analysis of the repo source.

    Lints the installed ``repro`` package by default (or the given
    paths): lock-order against the declared hierarchy, ContextVar
    set/reset pairing, wall-vs-monotonic clock discipline, and
    thread/container lifecycle.  Exit status is non-zero on any error
    finding (or any warning, with ``--strict``).  CI runs
    ``repro lint-src --strict --format github`` as a hard gate.
    """
    from repro.analysis.srclint import (
        lint_paths,
        render_src_rule_table,
    )

    if args.rules:
        print(render_src_rule_table())
        return 0
    report = lint_paths(
        paths=args.path or None,
        lockorder_path=args.lockorder,
        suppress_path=args.suppress_file,
        use_default_suppressions=not args.no_default_suppressions,
    )
    if args.format == "json":
        print(report.to_json())
    elif args.format == "github":
        for line in report.github_lines():
            print(line)
        print(
            f"srclint: {report.files_scanned} files, "
            f"{len(report.errors)} errors, {len(report.warnings)} "
            f"warnings, {len(report.suppressed)} suppressed"
        )
    else:
        print(report.render_text())
    return 0 if report.ok(strict=args.strict) else 1


def cmd_study(args):
    from repro.evaluation.report import StudyReport
    from repro.evaluation.study import Study, StudyConfig

    config = StudyConfig(
        participants=args.participants,
        seed=args.seed,
        dblp=DblpConfig(books=args.books, seed=args.seed),
    )
    audit = _open_audit_log(args)
    study = Study(config)
    if audit is not None:
        study.nalix.audit_log = audit
    if args.memory:
        # The study drives its own asks, so tracking is turned on for
        # every query via the ContextVar activation instead.
        with activate_memory_tracking(True):
            results = study.run()
    else:
        results = study.run()
    print(StudyReport(results).render())
    return _finish(args, audit, 0)


def cmd_generate(args):
    from repro.xmlstore.serializer import to_pretty_string

    document = generate_dblp(DblpConfig(books=args.books, seed=args.seed))
    text = to_pretty_string(document.root)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {document.node_count()} nodes to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _add_data_options(parser, default_data="movies"):
    parser.add_argument(
        "--data",
        default=default_data,
        help="dataset: movies | bib | dblp | path to an XML file",
    )
    parser.add_argument("--books", type=int, default=120,
                        help="books in the generated dblp dataset")
    parser.add_argument("--seed", type=int, default=7, help="generator seed")


def _add_resilience_options(parser):
    parser.add_argument(
        "--timeout", type=float, metavar="SECONDS",
        help="run each query under the default budget with this deadline",
    )
    parser.add_argument(
        "--inject-fault", action="append", metavar="SPEC",
        help="inject a deterministic fault: STAGE, STAGE:N, or "
        "STAGE:p=FLOAT[,seed=INT] (repeatable)",
    )


def _add_obs_options(parser, trace=False):
    if trace:
        parser.add_argument("--trace", action="store_true",
                            help="print the span tree of each query")
    parser.add_argument("--metrics", action="store_true",
                        help="dump the metrics registry as JSON on exit")
    parser.add_argument("--audit-log", metavar="PATH",
                        help="append one JSONL audit record per query")
    parser.add_argument("--memory", action="store_true",
                        help="account per-stage allocations (tracemalloc) "
                        "for each query")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NaLIX reproduction: natural language queries over XML",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    query = commands.add_parser("query", help="run one English query")
    _add_data_options(query)
    _add_obs_options(query, trace=True)
    _add_resilience_options(query)
    query.add_argument("--quiet", action="store_true",
                       help="hide the generated XQuery")
    query.add_argument("--explain", action="store_true",
                       help="print the full provenance/plan report")
    query.add_argument("--profile", action="store_true",
                       help="sample stacks during the query and write a "
                       "collapsed-stack file")
    query.add_argument("--profile-hz", type=float, default=DEFAULT_HZ,
                       metavar="HZ", help="profiler sampling rate")
    query.add_argument("--profile-out", metavar="PATH",
                       help="collapsed-stack output path "
                       "(default: profile.collapsed)")
    query.add_argument("sentence", help="the English query")
    query.set_defaults(handler=cmd_query)

    explain_parser = commands.add_parser(
        "explain",
        help="show word -> token -> clause lineage and plan statistics",
    )
    _add_data_options(explain_parser)
    _add_obs_options(explain_parser)
    explain_parser.add_argument("--json", action="store_true",
                                help="emit the report as JSON")
    explain_parser.add_argument("--no-evaluate", action="store_true",
                                help="skip evaluation (no plan statistics)")
    explain_parser.add_argument("--timeout", type=float, metavar="SECONDS")
    explain_parser.add_argument("sentence", help="the English query")
    explain_parser.set_defaults(handler=cmd_explain)

    repl = commands.add_parser("repl", help="interactive query loop")
    _add_data_options(repl)
    _add_obs_options(repl, trace=True)
    _add_resilience_options(repl)
    repl.add_argument("--quiet", action="store_true")
    repl.set_defaults(handler=cmd_repl)

    xquery = commands.add_parser("xquery", help="run raw Schema-Free XQuery")
    _add_data_options(xquery, default_data="bib")
    xquery.add_argument("query", help="the XQuery text")
    xquery.set_defaults(handler=cmd_xquery)

    tasks = commands.add_parser("tasks", help="run the 9 XMP study tasks")
    tasks.add_argument("--books", type=int, default=120)
    tasks.add_argument("--seed", type=int, default=7)
    _add_obs_options(tasks)
    tasks.set_defaults(handler=cmd_tasks)

    stats = commands.add_parser(
        "stats",
        help="replay the XMP task phrasings; report per-stage "
        "latency and failure counts",
    )
    stats.add_argument("--books", type=int, default=120)
    stats.add_argument("--seed", type=int, default=7)
    stats.add_argument("--url", metavar="URL",
                       help="scrape a live repro serve /metrics endpoint "
                       "instead of replaying queries locally")
    stats.add_argument("--from-log", metavar="PATH",
                       help="summarize a recorded JSONL audit/access log "
                       "(rotated .1 sibling chained, corrupt rows "
                       "counted) instead of replaying queries")
    stats.add_argument("--good-only", action="store_true",
                       help="replay only the known-good phrasings")
    stats.add_argument("--format", choices=("table", "json", "prom", "chrome"),
                       default="table",
                       help="output format (default: human-readable table)")
    stats.add_argument("--watch", type=float, metavar="SECONDS",
                       help="with --url: re-scrape and refresh every N "
                       "seconds until Ctrl-C")
    stats.add_argument("--out", metavar="PATH",
                       help="write the export to a file instead of stdout")
    _add_obs_options(stats)
    stats.set_defaults(handler=cmd_stats)

    profile = commands.add_parser(
        "profile",
        help="sample a query's stacks into flamegraph/speedscope input",
    )
    _add_data_options(profile)
    profile.add_argument("--hz", type=float, default=DEFAULT_HZ,
                         help="sampling rate (default: %(default)s)")
    profile.add_argument("--repeat", type=int, default=20, metavar="N",
                         help="re-ask the query N times to densify samples")
    profile.add_argument("--format", choices=("collapsed", "speedscope"),
                         default="collapsed",
                         help="output format (default: collapsed stacks)")
    profile.add_argument("--memory", action="store_true",
                         help="also track per-stage allocations")
    profile.add_argument("--out", metavar="PATH",
                         help="write the profile to a file instead of stdout")
    profile.add_argument("sentence", help="the English query")
    profile.set_defaults(handler=cmd_profile)

    serve = commands.add_parser(
        "serve",
        help="run the concurrent HTTP query service "
        "(/query, /metrics, /healthz, /readyz)",
    )
    _add_data_options(serve)
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: %(default)s)")
    serve.add_argument("--port", type=int, default=8080,
                       help="bind port; 0 picks a free one "
                       "(default: %(default)s)")
    serve.add_argument("--max-inflight", type=int, default=8, metavar="N",
                       help="concurrent queries before shedding load "
                       "with 503 (default: %(default)s)")
    serve.add_argument("--tenant-rate", type=float, metavar="R",
                       help="per-tenant rate limit in requests/second "
                       "(default: unlimited)")
    serve.add_argument("--tenant-burst", type=float, metavar="N",
                       help="per-tenant token-bucket burst depth")
    serve.add_argument("--tenant-inflight", type=int, metavar="N",
                       help="per-tenant concurrent-query cap")
    serve.add_argument("--timeout", type=float, metavar="SECONDS",
                       help="default per-query budget deadline")
    serve.add_argument("--max-timeout", type=float, default=30.0,
                       metavar="SECONDS",
                       help="largest per-query deadline a client may "
                       "request (default: %(default)s)")
    serve.add_argument("--access-log", metavar="PATH",
                       help="rotating JSONL access log (one audit "
                       "record per query)")
    serve.add_argument("--allow-xquery", action="store_true",
                       help="enable POST /xquery (raw queries, gated "
                       "by the qlint static analyzer)")
    serve.add_argument("--drain-grace", type=float, metavar="SECONDS",
                       help="max seconds to wait for in-flight queries "
                       "on shutdown")
    serve.add_argument("--inject-fault", action="append", metavar="SPEC",
                       help="chaos: inject a fault into the served "
                       "pipeline (STAGE, STAGE:N, STAGE:p=0.1[,seed=S]"
                       "[,delay=SECONDS][,tenant=NAME]; repeatable)")
    serve.add_argument("--no-brownout", action="store_true",
                       help="disable the brownout ladder (budget "
                       "tightening + pre-degradation under pressure)")
    serve.add_argument("--no-watchdog", action="store_true",
                       help="disable the stuck-query watchdog")
    serve.add_argument("--watchdog-interval", type=float, default=0.5,
                       metavar="SECONDS",
                       help="watchdog scan interval "
                       "(default: %(default)s)")
    serve.add_argument("--watchdog-soft", type=float, metavar="SECONDS",
                       help="absolute stuck stamp deadline (default: "
                       "1.5x each request's budget deadline)")
    serve.add_argument("--watchdog-hard", type=float, metavar="SECONDS",
                       help="absolute force-expiry deadline (default: "
                       "3x each request's budget deadline)")
    serve.add_argument("--breaker-threshold", type=float, default=0.5,
                       metavar="FRACTION",
                       help="rolling failure rate that opens a circuit "
                       "breaker (default: %(default)s)")
    serve.add_argument("--breaker-open", type=float, default=5.0,
                       metavar="SECONDS",
                       help="seconds an open breaker waits before "
                       "half-open probes (default: %(default)s)")
    serve.add_argument("--slo", action="append", metavar="SPEC",
                       help="SLO spec: availability:0.99 or "
                       "latency:0.99@0.5[@/query]; repeatable; "
                       "'none' disables the SLO engine (default: "
                       "99%% availability + p99<1s on /query)")
    serve.add_argument("--slo-fast-burn", type=float, default=14.4,
                       metavar="RATE",
                       help="fast-window burn rate that raises the "
                       "page-now alert (default: %(default)s)")
    serve.add_argument("--no-recorder", action="store_true",
                       help="disable the tail sampler + flight recorder")
    serve.add_argument("--recorder-bytes", type=int,
                       default=8 * 1024 * 1024, metavar="BYTES",
                       help="flight-recorder ring-buffer budget "
                       "(default: %(default)s)")
    serve.add_argument("--head-sample-rate", type=float, default=0.1,
                       metavar="FRACTION",
                       help="fraction of healthy traffic the sampler "
                       "retains (default: %(default)s)")
    serve.add_argument("--dump-dir", metavar="DIR",
                       help="directory for automatic flight-recorder "
                       "dumps (breaker-open, watchdog-hard, SLO "
                       "fast-burn)")
    serve.add_argument("--dump-on", metavar="SIGNAL",
                       help="also dump on this signal, e.g. SIGUSR1 "
                       "(server keeps running)")
    serve.add_argument("--canary", dest="canary", action="store_true",
                       default=None,
                       help="run the golden-query correctness canary "
                       "(default: on for --data dblp, where committed "
                       "golden digests exist)")
    serve.add_argument("--no-canary", dest="canary", action="store_false",
                       help="disable the correctness canary")
    serve.add_argument("--canary-interval", type=float, default=30.0,
                       metavar="SECONDS",
                       help="seconds between canary sweeps "
                       "(default: %(default)s)")
    serve.set_defaults(handler=cmd_serve)

    top = commands.add_parser(
        "top",
        help="live ANSI dashboard over a running repro serve "
        "(QPS, SLO burn, breakers, in-flight requests)",
    )
    top.add_argument("--url", default="http://127.0.0.1:8080",
                     help="server base URL (default: %(default)s)")
    top.add_argument("--interval", type=float, default=2.0,
                     metavar="SECONDS",
                     help="refresh interval (default: %(default)s)")
    top.add_argument("--once", action="store_true",
                     help="print one plain frame and exit (CI smoke)")
    top.add_argument("--no-color", action="store_true",
                     help="disable ANSI colors")
    top.set_defaults(handler=cmd_top)

    loadgen = commands.add_parser(
        "loadgen",
        help="drive a running repro serve with N concurrent clients",
    )
    loadgen.add_argument("--url", default="http://127.0.0.1:8080",
                         help="server base URL (default: %(default)s)")
    loadgen.add_argument("--concurrency", type=int, default=8, metavar="N",
                         help="concurrent clients (default: %(default)s)")
    loadgen.add_argument("--requests", type=int, default=90, metavar="N",
                         help="total requests to issue "
                         "(default: %(default)s)")
    loadgen.add_argument("--duration", type=float, metavar="SECONDS",
                         help="run for a duration instead of a request "
                         "count")
    loadgen.add_argument("--tenant", default="loadgen",
                         help="tenant header value; comma-separate "
                         "several to spread workers across tenants")
    loadgen.add_argument("--explain-every", type=int, default=0,
                         metavar="N",
                         help="request explain output on every Nth "
                         "query (0 = never)")
    loadgen.add_argument("--timeout", type=float, default=30.0,
                         metavar="SECONDS",
                         help="per-request client timeout")
    loadgen.add_argument("--retries", type=int, default=0, metavar="N",
                         help="retry retryable outcomes up to N times "
                         "with backoff + Retry-After (default: off)")
    loadgen.add_argument("--hedge", action="store_true",
                         help="race a hedged second attempt once a "
                         "request exceeds the client's observed p95")
    loadgen.add_argument("--retry-seed", type=int, default=0,
                         help="base seed for the retry jitter")
    loadgen.add_argument("--min-availability", type=float, metavar="FRACTION",
                         help="exit 1 when final-outcome availability "
                         "falls below this fraction")
    loadgen.add_argument("--json", action="store_true",
                         help="emit the report as JSON")
    loadgen.add_argument("--out", metavar="PATH",
                         help="write the report to a file")
    loadgen.add_argument("sentence", nargs="*",
                         help="task mix (default: the nine study-task "
                         "phrasings)")
    loadgen.set_defaults(handler=cmd_loadgen)

    replay = commands.add_parser(
        "replay",
        help="re-execute a recorded audit/access log and diff the "
        "answer digests against the current build",
    )
    _add_data_options(replay, default_data="dblp")
    replay.add_argument("log", metavar="LOG",
                        help="JSONL audit/access log path (the rotated "
                        ".1 sibling is chained automatically)")
    replay.add_argument("--url", metavar="URL",
                        help="replay against a live repro serve instance "
                        "instead of an in-process pipeline")
    replay.add_argument("--tenant", default="replay",
                        help="tenant header in --url mode "
                        "(default: %(default)s)")
    replay.add_argument("--timeout", type=float, default=10.0,
                        metavar="SECONDS",
                        help="per-query budget/client timeout "
                        "(default: %(default)s)")
    replay.add_argument("--limit", type=int, metavar="N",
                        help="replay at most N records")
    replay.add_argument("--no-rotated", action="store_true",
                        help="read exactly the named file (skip the "
                        "rotated .1 sibling)")
    replay.add_argument("--format", choices=("text", "json"),
                        default="text",
                        help="report format (default: text)")
    replay.add_argument("--github", action="store_true",
                        help="emit ::warning/::error workflow "
                        "annotation lines")
    replay.add_argument("--out", metavar="PATH",
                        help="write the report to a file")
    replay.set_defaults(handler=cmd_replay)

    lint = commands.add_parser(
        "lint",
        help="qlint: static-analyze queries and the pipeline tables",
    )
    _add_data_options(lint)
    lint.add_argument("sentence", nargs="*",
                      help="English queries to lint (raw XQuery with "
                      "--xquery); none = --self --corpus")
    lint.add_argument("--stdin", action="store_true",
                      help="also read one query per line from stdin")
    lint.add_argument("--xquery", action="store_true",
                      help="treat the inputs as raw XQuery text")
    lint.add_argument("--tasks", action="store_true",
                      help="lint the 9 XMP benchmark task phrasings")
    lint.add_argument("--corpus", action="store_true",
                      help="lint the full corpus: paper examples + tasks")
    lint.add_argument("--self", dest="self_check", action="store_true",
                      help="cross-check the lexicon/grammar/translator "
                      "tables (QP rules)")
    lint.add_argument("--suppress", action="append", metavar="RULE",
                      help="suppress a rule id (repeatable)")
    lint.add_argument("--format", choices=("text", "json", "github"),
                      default="text",
                      help="output format (default: text)")
    lint.add_argument("--strict", action="store_true",
                      help="warnings also fail the lint")
    lint.set_defaults(handler=cmd_lint)

    lint_src = commands.add_parser(
        "lint-src",
        help="srclint: concurrency/resource-safety analysis of the "
        "repo's own source",
    )
    lint_src.add_argument("path", nargs="*",
                          help="files or directories to lint "
                          "(default: the installed repro package)")
    lint_src.add_argument("--format", choices=("text", "json", "github"),
                          default="text",
                          help="output format (default: text)")
    lint_src.add_argument("--strict", action="store_true",
                          help="warnings also fail the lint")
    lint_src.add_argument("--suppress-file", metavar="FILE",
                          help="extra suppression file (adds to the "
                          "packaged srclint-suppress.txt)")
    lint_src.add_argument("--no-default-suppressions", action="store_true",
                          help="ignore the packaged suppression file")
    lint_src.add_argument("--lockorder", metavar="FILE",
                          help="alternate lock-hierarchy TOML "
                          "(default: packaged lockorder.toml)")
    lint_src.add_argument("--rules", action="store_true",
                          help="print the srclint rule catalog and exit")
    lint_src.set_defaults(handler=cmd_lint_src)

    study = commands.add_parser("study", help="run the simulated user study")
    study.add_argument("--participants", type=int, default=18)
    study.add_argument("--seed", type=int, default=2006)
    study.add_argument("--books", type=int, default=120)
    _add_obs_options(study)
    study.set_defaults(handler=cmd_study)

    generate = commands.add_parser("generate", help="emit a DBLP-like XML file")
    generate.add_argument("--books", type=int, default=120)
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument("--out", help="output path (stdout when absent)")
    generate.set_defaults(handler=cmd_generate)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # Piping into e.g. ``head`` closes stdout early; that is not an
        # error.  Point stdout at devnull so interpreter shutdown does
        # not trip over the closed pipe.
        import os

        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
