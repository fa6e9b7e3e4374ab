"""Smoke test of the benchmark at tiny dims (seconds per workload):

    python3 -m pytest perfbench/smoke.py

The file name keeps it out of the repository's default test collection.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# user-facing figures each workload prints besides BENCHMARK.json's metrics
NAMED = {
    "train": ("train_exams_per_s", "val_exams_per_s", "epoch_s",
              "patch_train_patches_per_s"),
    "infer": ("heatmap_exams_per_s", "predict_exams_per_s", "evaluate_s",
              "reader_study_s"),
}
COMMON = ("setup_s", "peak_rss_mb", "error_rate")


def run(workload, trace, seed=3, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return done


def result_of(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def report_of(workload, trace, seed=3):
    path = BENCH / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def test_gated_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(NAMED)


@pytest.mark.parametrize("workload", sorted(NAMED))
def test_workload_reports_every_metric(workload):
    result = result_of(run(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
    report = report_of(workload, 0)
    for name in COMMON + NAMED[workload]:
        assert report["named"][name]["unit"]
    assert report["digests"]

    # two runs of the same code and seed write the same outputs
    result_of(run(workload, 0))
    assert report_of(workload, 0)["digests"] == report["digests"]

    traced = result_of(run(workload, 1))
    assert traced["correct"]
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert traced["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "work", "__pycache__"))
    done = run("infer", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
