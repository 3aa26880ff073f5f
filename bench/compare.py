"""Compare two sets of benchmark runs metric by metric, workload by workload.

    python3 bench/compare.py BASE.json CHANGE.json
    python3 bench/compare.py bench/results/seed.json:first \\
        bench/results/seed.json:second

Each argument is a run file written by ``run.py --out`` or, as
``FILE:SET``, one set of a baseline file such as ``results/seed.json``.
BASE is the parent commit and CHANGE the commit under test; run them
alternately, so run i of each side forms a pair.

For every end-to-end metric of BENCHMARK.json and every workload, the
report gives each side's median and quartiles, the fraction of pairs the
change won (ties count for neither), and a verdict:

* regressed -- the change's median is worse than the base's by more than
  the bound, and either every change run is worse than every base run or
  both spreads are within the bound;
* unresolved -- either side's spread (quartile distance over median) is
  wider than the metric's bound, and not every change run beats (or
  loses to) every base run;
* improved -- there are at least ten pairs, the change won at least nine
  in ten of them, and the medians differ by more than the base's
  quartile distance;
* unchanged -- otherwise.

Per-layer metrics (traced runs) are listed without a verdict, except
those that read 0 in every run (a layer the workload does not pass
through).  The exit
code is 1 on any regression or on any run with a failed or wrong
operation, 2 when the two sides ran for different lengths, else 0.  ``--save PATH`` writes both sides with every
metric's spread as one baseline file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from measure import quartiles

ROOT = Path(__file__).resolve().parent.parent
#: Fewer pairs than this never make a gain.
MIN_PAIRS = 10


def load(argument):
    """(meta, runs) of ``FILE`` or of set ``SET`` in ``FILE:SET``."""
    path, _, label = argument.partition(":")
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    if label:
        return document["meta"], document["sets"][label]
    return document["meta"], document["runs"]


def values_by_row(runs, trace):
    """{(workload, metric): [value per run, in run order]}."""
    rows = {}
    for run in runs:
        if run["trace"] != trace:
            continue
        for name, metric in run["result"]["metrics"].items():
            rows.setdefault((run["workload"], name), []).append(
                metric["value"]
            )
    return rows


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def win_fraction(base, change, higher):
    """The share of pairs (base[i], change[i]) the change won; ties lose."""
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if (c > b if higher else c < b))
    return wins / len(pairs) if pairs else 0.0


def verdict(base, change, bound, higher):
    """The row's verdict and the change's win fraction over pairs."""
    win_frac = win_fraction(base, change, higher)
    b_q1, b_median, b_q3 = quartiles(base)
    _, c_median, _ = quartiles(change)
    better = c_median > b_median if higher else c_median < b_median
    worse_by = (b_median - c_median if higher else c_median - b_median)
    always_better = (min(change) > max(base) if higher
                     else max(change) < min(base))
    always_worse = (max(change) < min(base) if higher
                    else min(change) > max(base))
    regressed = worse_by > bound * abs(b_median)
    if regressed and always_worse:
        return "regressed", win_frac
    if max(spread(base), spread(change)) > bound and not always_better:
        return "unresolved", win_frac
    if regressed:
        return "regressed", win_frac
    if (better and len(base) >= MIN_PAIRS and win_frac >= 0.9
            and abs(c_median - b_median) > b_q3 - b_q1):
        return "improved", win_frac
    return "unchanged", win_frac


def failures(runs):
    """(workload, failed, attempted) for every run that was not clean."""
    return [(run["workload"], run["result"]["failed"],
             run["result"]["attempted"])
            for run in runs
            if run["result"]["failed"] or not run["result"]["correct"]]


def _fmt(values):
    q1, median, q3 = quartiles(values)
    return f"{median:10.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--save", type=Path,
                        help="write both sides and their spreads here")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base_meta, base_runs = load(args.base)
    change_meta, change_runs = load(args.change)
    for label, meta in (("base", base_meta), ("change", change_meta)):
        print(f"{label:6} commit {meta['commit']}  python {meta['python']}  "
              f"nproc {meta['nproc']}  seconds {meta['seconds']}")
    if base_meta["seconds"] != change_meta["seconds"]:
        print("compare: the two sides measured runs of different lengths",
              file=sys.stderr)
        return 2

    regressed = False
    print(f"{'workload':16} {'metric':24} {'base median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'wins':>5}  verdict")
    for trace, specs in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        base_rows = values_by_row(base_runs, trace)
        change_rows = values_by_row(change_runs, trace)
        for metric in specs:
            for workload in sorted({w for w, name in base_rows
                                    if name == metric["name"]}):
                base = base_rows.get((workload, metric["name"]))
                change = change_rows.get((workload, metric["name"]))
                if not change or None in base or None in change:
                    continue
                if trace and not any(base + change):
                    continue
                higher = metric["better"] == "higher"
                if trace:
                    row_verdict = "-"
                    win_frac = win_fraction(base, change, higher)
                else:
                    row_verdict, win_frac = verdict(
                        base, change, metric["bound"], higher)
                    regressed |= row_verdict == "regressed"
                print(f"{workload:16} {metric['name']:24} {_fmt(base):>30} "
                      f"{_fmt(change):>30} {win_frac:5.0%}  {row_verdict}")

    unclean = failures(base_runs) + failures(change_runs)
    for workload, failed, attempted in unclean:
        print(f"FAILED: {workload}: {failed} of {attempted} operations "
              "failed or answered wrongly")
    if args.save:
        save(args.save, base_meta, base_runs, change_runs)
    return 1 if regressed or unclean else 0


def save(path, meta, first, second):
    """Write a baseline file: two sets of runs and each metric's spread."""
    spreads = {}
    for label, runs in (("first", first), ("second", second)):
        for trace in (0, 1):
            for (workload, name), values in values_by_row(runs,
                                                          trace).items():
                if None in values:
                    continue
                row = spreads.setdefault(workload, {}).setdefault(name, {})
                q1, median, q3 = quartiles(values)
                row[label] = {"median": median, "q1": q1, "q3": q3,
                              "spread": spread(values), "runs": len(values)}
    document = {"meta": meta, "sets": {"first": first, "second": second},
                "spread": spreads}
    path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
