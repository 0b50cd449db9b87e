"""End-to-end smoke runs of the benchmark command at a tiny size."""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import spec
from conftest import BENCH, ROOT

TINY = ["--seconds", "1", "--steps", "12"]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmark/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def result_line(stdout: str):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def test_benchmark_json_is_generated_from_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.benchmark_json()


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric_with_its_unit(trace):
    proc = bench("--workload", "reference", "--seed", "3", "--trace", str(trace), *TINY)
    assert proc.returncode == 0, proc.stderr
    result = result_line(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 3
    listed = spec.PER_LAYER if trace else spec.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m.name: m.unit for m in listed}
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
    if trace:
        assert "tracing overhead gm" in proc.stdout and "unaccounted engm" in proc.stdout
        assert (ROOT / ".bench_out" / "spans-reference-seed3.jsonl").is_file()
    else:
        assert all(result["metrics"][m.name]["value"] > 0 for m in spec.END_TO_END)


def test_traced_counts_repeat_exactly():
    first, second = (result_line(bench("--workload", "clean", "--seed", "1", "--trace", "1",
                                       *TINY).stdout) for _ in range(2))
    counts = [m.name for m in spec.PER_LAYER if m.unit != "ms"]
    assert [first["metrics"][n] for n in counts] == [second["metrics"][n] for n in counts]


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "reference", "--seed", "0", "--trace", "0", *TINY, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def outcome(series, digest="d", error=None):
    return run.Outcome(1.0, np.ones(len(series)), tuple(series), digest, error)


class Tap:
    present = True


def test_output_checks_catch_unpaired_scans_irreproducible_runs_and_bad_ospa():
    good = [(1, 5.0, 5.0, 0.0, 3)]
    outcomes = {(0, f): [outcome(good)] for f in spec.FILTERS}
    problems = []
    run.check_outcomes(outcomes, [0], Tap(), 100.0, problems)
    assert problems == []

    outcomes[(0, "smc")] = [outcome(good, digest="other")]
    outcomes[(0, "gm")].append(outcome([(1, 5.5, 5.0, 0.0, 3)]))
    outcomes[(0, "engm")] = [outcome([(1, 100.5, 5.0, 100.0, 3)])]
    run.check_outcomes(outcomes, [0], Tap(), 100.0, problems)
    assert len(problems) == 3
    assert "identical scans" in problems[0]
    assert "repeated run differs" in problems[1]
    assert "OSPA outside" in problems[2]
