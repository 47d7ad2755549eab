"""The benchmark's tracer must keep finding the names it patches.

``bench/tracing.py`` swaps functions for timing wrappers by name, at the
places where the program looks them up.  A refactor that drops or renames
such an import makes a traced run crash or read zero, so these tests load
the tracer (compiled from its source; nothing is written under
``bench/``) and run it against the program.
"""

import types
from pathlib import Path

import numpy as np
import pytest

import fxam.training
from fxam.data import Dataset
from fxam.training import TrainConfig, tsi_train

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    source = TRACING.read_text(encoding="utf-8")
    exec(compile(source, str(TRACING), "exec"), module.__dict__)
    return module


def test_every_patched_name_resolves(tracing):
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in tracing.PATCHES
        if not hasattr(owner, attr)
    ]
    assert missing == []


def test_traced_fit_times_stage1(tracing):
    rng = np.random.default_rng(0)
    n = 300
    x = rng.uniform(0, 10, n)
    z = rng.choice(["a", "b", "c"], n)
    y = np.sin(x) + (z == "a") + rng.normal(0, 0.1, n)
    dataset = Dataset(response=y, numerical={"x": x},
                      categorical={"z": z})
    original = fxam.training.stage1_backfit
    tracer = tracing.Tracer()
    tracer.install()
    try:
        model = tsi_train(dataset, TrainConfig(sampling_threshold=100,
                                               pilot_size=100))
    finally:
        tracer.remove()
    assert fxam.training.stage1_backfit is original
    layers = tracer.layer_metrics(model)
    assert layers["training.stage1_s"] > 0
    assert layers["training.stage1_passes"] > 0
    assert layers["training.cycles"] == model.diagnostics["cycles"]
    assert layers["training.sample_size"] == 100


def test_traced_fit_times_categorical_setup(tracing):
    rng = np.random.default_rng(1)
    n = 200
    z = rng.choice(["a", "b", "c"], n)
    y = (z == "a") + rng.normal(0, 0.1, n)
    dataset = Dataset(response=y, categorical={"z": z})
    tracer = tracing.Tracer()
    tracer.install()
    try:
        model = tsi_train(dataset, TrainConfig())
    finally:
        tracer.remove()
    layers = tracer.layer_metrics(model)
    assert layers["data.labels"] == 3
    assert layers["data.encoding_s"] > 0
    assert layers["categorical.gram_assemble_s"] > 0
