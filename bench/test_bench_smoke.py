"""Smallest-size runs of every workload, so the benchmark cannot rot.

Run from the root of the repository:

    python3 -m pytest bench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from run import EXACT_SUFFIXES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["ff-grid", "cyclic-grid", "sim-ir", "corpus-cli"]

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(workload, seed, trace, root=ROOT):
    argv = [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload]
    argv += ["--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--size", "small"]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=300)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("env ")
    return json.loads(lines[-1]), json.loads(lines[0][len("env "):])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_and_check(workload):
    result, env = result_of(bench(workload, 1, 0))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert {"nproc", "python", "platform", "commit", "seed"} <= set(env)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_and_seeds_change_inputs(workload):
    first, env_first = result_of(bench(workload, 1, 1))
    again, env_again = result_of(bench(workload, 1, 1))
    other, env_other = result_of(bench(workload, 2, 1))
    assert first["correct"] and again["correct"] and other["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    exact = [k for k in first["metrics"] if k.endswith(EXACT_SUFFIXES)]
    assert {k: first["metrics"][k] for k in exact} == {k: again["metrics"][k] for k in exact}
    assert env_first["inputs_sha256"] == env_again["inputs_sha256"]
    assert env_first["inputs_sha256"] != env_other["inputs_sha256"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "_work-*"))
    proc = bench("corpus-cli", 1, 0, root=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
