"""Self-test of the benchmark: smoke run of all four workloads.

    python3 -m pytest bench/test_bench.py

Checks that ``BENCHMARK.json`` lists exactly the metrics ``run.py``
prints, that every workload prints every metric with its unit, that the
result lines are well formed and correct, and that the benchmark refuses
to run from a directory without the package sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--tiny",
         "--trace", "1", "--seconds", "0", "--seed", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_spec_matches_the_printed_metrics(spec):
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["command"] == ["python3", "bench/run.py"]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_every_metric_is_printed_with_its_unit(smoke):
    printed = set(re.findall(r"^metric (\S+) (\S+) \S+ (\S+)$", smoke, re.M))
    for workload in WORKLOADS:
        for name, unit in run.END_TO_END + run.PER_LAYER + (("error_rate", "ratio"),):
            assert (workload, name, unit) in printed
    assert ("well_sweep", "rows_per_s", "1/s") in printed


def test_result_lines_are_correct_and_complete(smoke):
    results = [json.loads(line) for line in smoke.splitlines() if line.startswith("{")]
    assert len(results) == len(WORKLOADS)
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.PER_LAYER)


def test_speed_clock_leaves_its_samples_out():
    began = time.perf_counter()
    with speed.SpeedClock(interval=0.01) as clock:
        while time.perf_counter() - began < 0.3:
            speed.kernel()
    elapsed = time.perf_counter() - began
    assert clock.samples >= 10
    # the kernel samples' own time is in the elapsed time, not in raw
    assert 0.1 < clock.raw < elapsed
    assert clock.ref > 0 and 0 < clock.cpu_raw < elapsed
    assert clock.cpu_ref == pytest.approx(clock.cpu_raw * clock.ref / clock.raw)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "long_run", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
