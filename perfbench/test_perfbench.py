"""The benchmark's own tests: run with ``python3 -m pytest perfbench -q``.

They drive ``steady.py --short``: every workload traced and untraced with
every answer check on, and one deliberately wrong answer per workload,
which must fail its run.  Together they take about three minutes.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def test_short_mode_runs_every_workload_and_catches_a_wrong_answer():
    proc = subprocess.run(
        [sys.executable, str(HERE / "steady.py"), "--short"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in spec["workloads"]] + ["cascade-pool", "net-video"]:
        assert f"{workload:<14} one wrong answer: caught" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in ("run.py", "stack.py"):
        (tmp_path / "perfbench" / name).write_text((HERE / name).read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cascade-bnn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
