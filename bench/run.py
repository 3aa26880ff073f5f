"""End-to-end benchmark of NaLIX: four workloads, checked answers.

Run from the repository root::

    python3 bench/run.py                          # every workload, seed 7
    python3 bench/run.py --workload tasks-paper --seed 8
    python3 bench/run.py --trace 1 --workload unique-tiny  # per-layer run
    python3 bench/run.py --quick                  # a few seconds each

``--workload``, ``--seed``, ``--seconds`` and ``--trace 0|1`` are the
interface every benchmark run is driven through.  Leave ``--seconds`` at
its default (BENCHMARK.json's ``run_seconds``) for runs that are to be
compared; compare.py refuses two sides of different lengths.

Each workload runs in fresh processes with ``PYTHONPATH=src`` and
``PYTHONHASHSEED=0``.  Set-up is timed from spawn to ready several times
and reported as the median.  Every metric is printed by name with its
unit; the last line is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  The exit code is non-zero when any answer was
wrong or any operation failed.  The metric names, units and regression
bounds are those of BENCHMARK.json; see bench/README.md.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter, sleep

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("tasks-paper", "unique-paper", "unique-tiny", "serve-keepalive")
#: Traced runs write their Perfetto trace here.
TRACE_DIR = ROOT / ".bench_out"
SETUPS = 5
#: Each workload process is killed after this long, so one run always
#: ends within the three minutes a run may take.
PROCESS_LIMIT_S = 150


class WorkloadError(RuntimeError):
    """A workload process failed to start, answer or exit cleanly."""


def serve_cpus():
    """(CPU for the server, CPU for the load generator), or Nones.

    With two CPUs or more, the server and its load generator each run on
    a CPU of their own: they never compete for one, and where the
    scheduler happens to place them no longer moves the reference
    latency from run to run.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[0], cpus[1]) if len(cpus) >= 2 else (None, None)


def child_env():
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "")
                                   .split(os.pathsep) if p]
    env.update(PYTHONPATH=os.pathsep.join(paths), PYTHONHASHSEED="0",
               PYTHONUNBUFFERED="1")
    return env


class Child:
    """A subprocess whose stdout speaks the READY/RESULT protocol.

    Used as a context manager, it is stopped and waited for on the way
    out, whatever happened.
    """

    def __init__(self, argv, cpu=None):
        self.started = perf_counter()
        self.process = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            text=True,
        )
        if cpu is not None:
            os.sched_setaffinity(self.process.pid, {cpu})
        self._timer = threading.Timer(PROCESS_LIMIT_S, self.process.kill)
        self._timer.daemon = True
        self._timer.start()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.stop()

    def read(self, prefix):
        """(payload after ``prefix``, perf_counter when it arrived)."""
        for line in self.process.stdout:
            if line.startswith(prefix):
                return line[len(prefix):].strip(), perf_counter()
            sys.stderr.write(line)
        raise WorkloadError(
            f"{Path(self.process.args[1]).name} exited before {prefix!r}"
        )

    def wait(self):
        """Wait for a normal exit; returns the exit code."""
        self.process.wait()
        return self.stop()

    def stop(self):
        """SIGTERM (then SIGKILL) unless exited; returns the exit code."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._timer.cancel()
        self.process.stdout.close()
        return self.process.returncode


def run_in_process(workload, seed, seconds, trace, setups, trace_out):
    base = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
            "--seed", str(seed)]
    samples, timings = [], []
    for _ in range(setups - 1):
        with Child(base + ["--setup-only"]) as child:
            payload, ready = child.read("READY ")
            samples.append(ready - child.started)
            timings.append(json.loads(payload))
            if child.wait() != 0:
                raise WorkloadError("set-up-only worker failed")
    argv = base + ["--seconds", str(seconds), "--trace", str(trace)]
    if trace_out:
        argv += ["--trace-out", str(trace_out)]
    with Child(argv) as child:
        payload, ready = child.read("READY ")
        samples.append(ready - child.started)
        timings.append(json.loads(payload))
        result = json.loads(child.read("RESULT ")[0])
        if child.wait() != 0:
            raise WorkloadError(f"{workload} worker failed")
    result["metrics"].update({
        "setup_s": statistics.median(samples),
        "data.generate_s": statistics.median(t["generate_s"]
                                             for t in timings),
        "database.load_s": statistics.median(t["load_s"] for t in timings),
    })
    return result


def start_server(seed, cpu):
    """Spawn ``repro serve``; returns (child, url, seconds to ready)."""
    child = Child([sys.executable, "-m", "repro", "serve", "--data", "dblp",
                   "--books", "120", "--seed", str(seed), "--port", "0",
                   "--no-canary"], cpu)
    try:
        line, _ = child.read("repro serve: listening on ")
        match = re.match(r"http://([^:/]+):(\d+)", line)
        if match is None:
            raise WorkloadError(f"cannot read the server address: {line!r}")
        host, port = match.group(1), int(match.group(2))
        while not _ready(host, port):
            if child.process.poll() is not None:
                raise WorkloadError("the server exited before it was ready")
            sleep(0.002)
    except BaseException:
        child.stop()
        raise
    return child, f"http://{host}:{port}", perf_counter() - child.started


def _ready(host, port):
    connection = http.client.HTTPConnection(host, port, timeout=5)
    try:
        connection.request("GET", "/readyz")
        return connection.getresponse().status == 200
    except OSError:
        return False
    finally:
        connection.close()


def peak_rss_of(pid):
    """VmHWM of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise WorkloadError(f"no VmHWM for process {pid}")


def run_serve(seed, seconds, trace, setups, trace_out):
    server_cpu, client_cpu = serve_cpus()
    samples = []
    for _ in range(setups - 1):
        child, _, ready = start_server(seed, server_cpu)
        samples.append(ready)
        # The server answers /readyz before it installs its SIGTERM
        # handler, so stopping it this early may skip the drain.
        child.stop()
    server, url, ready = start_server(seed, server_cpu)
    samples.append(ready)
    with server:
        argv = [sys.executable, str(BENCH / "serveload.py"), "--url", url,
                "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(trace)]
        if trace_out:
            argv += ["--trace-out", str(trace_out)]
        with Child(argv, client_cpu) as child:
            result = json.loads(child.read("RESULT ")[0])
            if child.wait() != 0:
                raise WorkloadError("serve load generator failed")
        result["metrics"]["peak_rss_mb"] = peak_rss_of(server.process.pid)
        if server.stop() != 0:
            raise WorkloadError("the server did not drain and stop cleanly")
    result["metrics"]["setup_s"] = statistics.median(samples)
    return result


def run_workload(workload, seed, seconds, trace, setups):
    trace_out = None
    if trace:
        TRACE_DIR.mkdir(exist_ok=True)
        trace_out = TRACE_DIR / f"{workload}-seed{seed}.trace.json"
    if workload == "serve-keepalive":
        return run_serve(seed, seconds, trace, setups, trace_out)
    return run_in_process(workload, seed, seconds, trace, setups, trace_out)


def contract(result, specs):
    """The result as BENCHMARK.json names it: only the listed metrics.

    A listed metric the workload did not produce belongs to a layer the
    workload does not pass through (a serve-only layer in process, or a
    layer the server does not expose) and reads 0.
    """
    metrics = result["metrics"]
    return {
        "correct": result["failed"] == 0 and result["warm_failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            spec["name"]: {"value": metrics.get(spec["name"], 0.0),
                           "unit": spec["unit"]}
            for spec in specs
        },
    }


def _commit():
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def save_runs(path, runs, seconds):
    """Append ``runs`` to the run file at ``path`` (see compare.py)."""
    document = {"meta": {"nproc": os.cpu_count(),
                         "python": platform.python_version(),
                         "commit": _commit(), "seconds": seconds},
                "runs": []}
    if path.exists():
        document = json.loads(path.read_text(encoding="utf-8"))
    document["runs"].extend(runs)
    path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=7,
                        help="DBLP and sentence generator seed (default 7)")
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per run "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run, reporting per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="smoke test: 1-second runs with one set-up each")
    parser.add_argument("--out", type=Path,
                        help="append every run to this JSON file")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print("bench: run from a checkout holding src/repro and "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    seconds = args.seconds or (1.0 if args.quick else spec["run_seconds"])
    setups = 1 if args.quick else SETUPS
    workloads = args.workload or list(WORKLOADS)
    if args.out and args.out.exists():
        earlier = json.loads(args.out.read_text(encoding="utf-8"))
        if earlier["meta"]["seconds"] != seconds:
            print(f"bench: {args.out} holds runs of another length",
                  file=sys.stderr)
            return 2

    runs = []
    for workload in workloads:
        try:
            raw = run_workload(workload, args.seed, seconds, args.trace,
                               setups)
        except (WorkloadError, OSError, ValueError) as error:
            print(f"bench: {workload}: {error}", file=sys.stderr)
            return 2
        result = contract(raw, specs)
        runs.append({"workload": workload, "seed": args.seed,
                     "trace": args.trace, "result": result})
        for name, metric in result["metrics"].items():
            value = metric["value"]
            shown = "null" if value is None else f"{value:.6g}"
            print(f"{workload:16} {name:30} {shown:>12} {metric['unit']}")
        print(f"{workload:16} {'attempted':30} {result['attempted']:>12}"
              f"  failed {result['failed']}, correct "
              f"{str(result['correct']).lower()}", flush=True)
    if args.out:
        save_runs(args.out, runs, seconds)

    correct = all(run["result"]["correct"] for run in runs)
    if len(runs) == 1:
        summary = runs[0]["result"]
    else:
        summary = {
            "correct": correct,
            "attempted": sum(run["result"]["attempted"] for run in runs),
            "failed": sum(run["result"]["failed"] for run in runs),
            "metrics": {f"{run['workload']}:{name}": metric
                        for run in runs
                        for name, metric in run["result"]["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
