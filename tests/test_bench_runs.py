"""Smallest-size runs of the benchmark workloads.

`bench/run.py` checks every output it produces, so a run that reports
`"correct": true` replays its paths end to end.  On sim-ir that covers the
reordering offsets, on corpus-cli the `verify` reports, on ff-grid the
SHA-256 of every report against `bench/expected.json`, and on cyclic-grid
every bound against the recorded ones.  The full smoke suite is
`python3 -m pytest bench`; these runs keep the simulator paths and the grid
reports in the default test suite.  Nothing under `bench/` is written: the
run's scratch directory is removed by `run.py`, and no bytecode is cached.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_small(workload):
    argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
            "--size", "small", "--seconds", "0", "--trace", "0"]
    proc = subprocess.run(
        argv,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["sim-ir", "corpus-cli"])
def test_simulator_workload_is_correct(workload):
    assert _run_small(workload)["correct"] is True


@pytest.mark.parametrize("workload", ["ff-grid", "cyclic-grid"])
def test_grid_workload_is_correct(workload):
    assert _run_small(workload)["correct"] is True
