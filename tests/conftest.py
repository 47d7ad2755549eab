"""Shared builders for the test suite."""

import base64
import json

import numpy as np
import pytest

from fxam.data import Dataset
from fxam.model import FxamModel, ShapeCurve, serialize
from fxam.training import TemporalRule, TrainConfig


def make_toy_dataset(seed, n=200, time_points=12):
    """Small mixed-type dataset with a known additive structure.

    Numerical knots are drawn with gaps bounded below (cumulative uniform
    steps, then shuffled) so the curvature penalties stay well
    conditioned; times come from a small grid so every phase is well
    populated.
    """
    rng = np.random.default_rng(seed)
    x1 = np.cumsum(rng.uniform(0.3, 1.2, n))
    rng.shuffle(x1)
    x2 = np.cumsum(rng.uniform(0.3, 1.2, n)) - 60.0
    rng.shuffle(x2)
    z1 = rng.choice(["a", "b", "c"], n)
    z2 = rng.choice(["u", "v", "w"], n)
    t = rng.integers(0, time_points, n)
    y = (
        np.sin(x1 / 15.0)
        + 0.02 * x2
        + np.where(z1 == "a", 0.5, np.where(z1 == "b", -0.2, 0.1))
        + np.where(z2 == "u", -0.4, 0.3)
        + 0.05 * t
        + 0.6 * np.sin(2 * np.pi * t / 4)
        + rng.normal(0, 0.1, n)
    )
    return Dataset(
        response=y,
        numerical={"x1": x1, "x2": x2},
        categorical={"z1": z1, "z2": z2},
        temporal={"t": t},
    )


def tight_toy_config(**overrides):
    """Penalized-backend config tight enough to pin the fixed point.

    The tolerances put every block equation well below the 1e-6
    comparison gates (stage 3 solves its split directly on this backend,
    so the inner sweep settings go unread).
    """
    values = dict(
        backend="penalized",
        smoothness=1.0,
        categorical_ridge=1.0,
        trend_smoothness=500.0,
        seasonal_smoothness=500.0,
        temporal_rules={"t": TemporalRule(period=4, tau=1)},
        stage_tol_factor=1e-10,
        max_stage1_passes=200,
        inner_tol_factor=1e-11,
        max_inner_iterations=3000,
        outer_tol=1e-13,
        max_cycles=200,
        solver_tol=1e-12,
        sampling=False,
        dynamic_ordering=False,
    )
    values.update(overrides)
    return TrainConfig(**values)


@pytest.fixture
def toy_dataset():
    return make_toy_dataset(0)


@pytest.fixture
def toy_config():
    return tight_toy_config()


def packed(values):
    """Base64 text of float64 values, as fxam-model/2 writes a curve."""
    return base64.b64encode(
        np.asarray(values, dtype="<f8").tobytes()
    ).decode("ascii")


# edits of the curve "x" (knots [0, 1], values [0, 2]) in a model file
MALFORMED_CURVES = {
    "outside-alphabet": ("values", "!" + packed([0.0, 2.0])[1:]),
    "ragged-bytes": ("values", base64.b64encode(bytes(12)).decode("ascii")),
    "unequal-lengths": ("knots", packed([0.0, 1.0, 2.0])),
    "number-list": ("knots", [0.0, 1.0]),
    "decoded-nan": ("values", packed([0.0, np.nan])),
    "decreasing-knots": ("knots", packed([1.0, 0.0])),
}


def malformed_curve_file(case):
    """A model file whose one curve holds the ``MALFORMED_CURVES`` edit."""
    model = FxamModel(
        intercept=1.0,
        shapes={"x": ShapeCurve([0.0, 1.0], [0.0, 2.0])},
        betas={}, temporals={},
        schema={"numerical": ["x"], "categorical": [], "temporal": []},
    )
    doc = json.loads(serialize(model))
    key, value = MALFORMED_CURVES[case]
    doc["shapes"]["x"][key] = value
    return json.dumps(doc).encode("utf-8")
