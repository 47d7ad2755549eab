"""Smoke tests: demo scripts run to completion."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    # warnings are errors, as in the test suite
    return subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "demos" / name)],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_joint_categorical_demo():
    done = run_demo("02_joint_categorical.py")
    assert done.returncode == 0, done.stderr
    assert "Cholesky: factor once" in done.stdout


def test_seasonal_trend_demo():
    done = run_demo("03_seasonal_trend.py")
    assert done.returncode == 0, done.stderr
    assert "trend slope" in done.stdout
