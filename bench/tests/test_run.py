"""run.py end to end, and compare.py's verdicts."""

import json
import shutil
import subprocess
import sys
import time

import pytest
from compare import main as compare_main
from compare import verdict
from conftest import BENCH, ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_quick_runs_every_workload_and_prints_every_metric(trace, section):
    started = time.monotonic()
    done = _run("--quick", "--trace", trace)
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stderr[-2000:]
    assert elapsed < 30
    lines = done.stdout.splitlines()
    summary = json.loads(lines[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0
    for workload in SPEC["workloads"]:
        for metric in SPEC[section]:
            key = f"{workload['name']}:{metric['name']}"
            assert key in summary["metrics"], key
            assert any(line.split()[:2] == [workload["name"], metric["name"]]
                       for line in lines), key


def test_a_single_workload_prints_one_result_line():
    done = _run("--quick", "--workload", "unique-tiny", "--seed", "3")
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["attempted"] >= 1 and result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] > 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run("--workload", "tasks-paper", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_verdicts():
    same = [100.0, 101.0, 99.0, 100.5, 99.5] * 2
    assert verdict(same, same, 0.1, True)[0] == "unchanged"
    faster = [v * 1.5 for v in same]
    assert verdict(same, faster, 0.1, True) == ("improved", 1.0)
    assert verdict(same, faster, 0.1, False)[0] == "regressed"
    assert verdict(same[:5], faster[:5], 0.1, True)[0] == "unchanged"
    noisy = [50.0, 150.0, 100.0, 60.0, 140.0] * 2
    assert verdict(noisy, same, 0.1, True)[0] == "unresolved"
    assert verdict(noisy, [v * 4 for v in noisy], 0.1, True)[0] == \
        "improved"
    # A noisy base beaten in every run by a far worse change still fails.
    assert verdict(noisy, [v / 4 for v in same], 0.1, True)[0] == \
        "regressed"
    assert verdict(noisy, [v * 4 for v in noisy], 0.1, False)[0] == \
        "regressed"


def test_compare_refuses_runs_of_different_lengths(tmp_path):
    for name, seconds in (("a.json", 20), ("b.json", 10)):
        (tmp_path / name).write_text(json.dumps(
            {"meta": {"commit": "x", "python": "3", "nproc": 2,
                      "seconds": seconds}, "runs": []}), encoding="utf-8")
    assert compare_main([str(tmp_path / "a.json"),
                         str(tmp_path / "b.json")]) == 2
