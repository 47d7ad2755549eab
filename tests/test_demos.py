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


def test_shape_recovery_demo():
    done = run_demo("01_shape_recovery.py")
    assert done.returncode == 0, done.stderr
    assert "max curve error on the probe grid" in done.stdout


def test_joint_categorical_demo():
    done = run_demo("02_joint_categorical.py")
    assert done.returncode == 0, done.stderr
    assert "Cholesky: factor once" in done.stdout


def test_seasonal_trend_demo():
    done = run_demo("03_seasonal_trend.py")
    assert done.returncode == 0, done.stderr
    assert "trend slope" in done.stdout


def test_fast_smoothing_demo():
    done = run_demo("04_fast_smoothing.py")
    assert done.returncode == 0, done.stderr
    assert "accumulator updates" in done.stdout


def test_cross_validation_demo():
    done = run_demo("05_cross_validation.py")
    assert done.returncode == 0, done.stderr
    assert "mean cv rmse over noise floor" in done.stdout
