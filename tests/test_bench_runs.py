"""Smallest-size runs of the benchmark workloads that drive the simulator.

`bench/run.py` checks every output it produces, the sim-ir reordering
offsets and the corpus `verify` reports included, so a run that reports
`"correct": true` replays the simulator paths end to end.  The full smoke
suite is `python3 -m pytest bench`; these two runs keep the simulator paths
in the default test suite.  Nothing under `bench/` is written: the run's
scratch directory is removed by `run.py`, and no bytecode is cached.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["sim-ir", "corpus-cli"])
def test_simulator_workload_is_correct(workload):
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
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
