"""Seeded input generators for the benchmark's workloads.

Each workload is an additive truth plus Gaussian noise of known scale.
The generator keeps every truth component and the noiseless response, so
a run can check the fitted model against what produced the data.  It
uses neither ``fxam.synthetic`` nor ``fxam.evaluation.write_csv``: the
workloads must not move when either of those changes.

The truth's parameters (shape curves, categorical weights, seasonal
profile) are fixed per workload; the seed and a part number draw the
records and the noise, so every (seed, part) is a fresh sample from the
same population.  Rows are independent draws, so the last fifth of the
file is a uniform random holdout.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

HOLDOUT_SHARE = 0.2


@dataclass
class Workload:
    """Generated inputs plus the truth that produced them."""

    backend: str
    numerical: dict                 # name -> float64 column
    categorical: dict               # name -> str column
    temporal: dict                  # name -> int64 column
    rules: dict                     # temporal name -> (tau, period)
    response: np.ndarray
    noiseless: np.ndarray
    noise_scale: float
    weights: dict = field(default_factory=dict)   # cat name -> {label: w}
    seasonal: dict = field(default_factory=dict)  # temporal name -> profile

    @property
    def n_records(self):
        return self.response.size

    @property
    def n_train(self):
        return self.n_records - int(round(HOLDOUT_SHARE * self.n_records))

    def columns(self):
        """Column name -> array, in schema order (response last)."""
        out = {}
        out.update(self.numerical)
        out.update(self.categorical)
        out.update(self.temporal)
        out["y"] = self.response
        return out

    def schema(self):
        doc = {"columns": []}
        for name in self.numerical:
            doc["columns"].append({"name": name, "kind": "numerical"})
        for name in self.categorical:
            doc["columns"].append({"name": name, "kind": "categorical"})
        for name in self.temporal:
            tau, period = self.rules[name]
            doc["columns"].append({"name": name, "kind": "temporal",
                                   "tau": tau, "period": period})
        doc["columns"].append({"name": "y", "kind": "response"})
        return doc

    def write(self, directory):
        """``input.csv`` with shortest round-trip floats, ``schema.json``,
        and the truth as ``truth.npz`` (arrays) plus ``truth.json``, in a
        new ``directory``."""
        os.makedirs(directory)
        columns = self.columns()
        text = []
        for name, col in columns.items():
            if col.dtype.kind == "f":
                text.append(list(map(repr, col.tolist())))
            else:
                text.append(list(map(str, col.tolist())))
        path = os.path.join(directory, "input.csv")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(",".join(columns) + "\n")
            handle.writelines(",".join(row) + "\n" for row in zip(*text))
        path = os.path.join(directory, "schema.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.schema(), handle, indent=1)
        arrays = {f"col:{k}": v for k, v in columns.items()}
        arrays["noiseless"] = self.noiseless
        np.savez(os.path.join(directory, "truth.npz"), **arrays)
        meta = {
            "backend": self.backend,
            "noise_scale": self.noise_scale,
            "n_train": self.n_train,
            "weights": self.weights,
            "seasonal": {k: list(v) for k, v in self.seasonal.items()},
        }
        path = os.path.join(directory, "truth.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(meta, handle)


def _shape(rng, x, lo, hi):
    """A random smooth univariate piece on [lo, hi], of unit-order size."""
    u = (x - lo) / (hi - lo)
    kind = rng.integers(0, 3)
    amp = rng.uniform(0.5, 1.5)
    if kind == 0:
        return amp * np.sin(2 * np.pi * (rng.uniform(0.5, 2.0) * u
                                         + rng.uniform()))
    if kind == 1:
        return amp * 4.0 * (u - rng.uniform(0.3, 0.7)) ** 2
    return amp * np.tanh(6.0 * (u - rng.uniform(0.3, 0.7)))


def _categorical(rng, params, n, name, cardinality, scale, truth, weights):
    labels = np.array([f"{name}_{j}" for j in range(cardinality)])
    w = params.normal(0.0, scale, cardinality)
    codes = rng.integers(0, cardinality, n)
    truth += w[codes]
    weights[name] = dict(zip(labels.tolist(), w.tolist()))
    return labels[codes]


# Neither numeric-wide nor penalized-exact has categorical features: with a
# few small ones, the stage-2 ridge solve raises ConvergenceError on some
# seeds (about one in six for three features of 3, 5 and 8 labels on 40k
# training records).  cat-temporal carries the categorical layer.


NUMERIC_WIDE_RECORDS = 50_000


def numeric_wide(seed, part):
    """Twelve continuous features, every value distinct; no categorical or
    temporal feature; fast-kernel backend."""
    n = NUMERIC_WIDE_RECORDS
    params = np.random.default_rng(1)
    rng = np.random.default_rng([seed, part, 1])
    truth = np.zeros(n)
    numerical = {}
    for j in range(12):
        lo, hi = 0.0, params.uniform(1.0, 100.0)
        x = rng.uniform(lo, hi, n)
        numerical[f"x{j:02d}"] = x
        truth += _shape(params, x, lo, hi)
    noise = 1.0
    return Workload(
        backend="fast-kernel", numerical=numerical,
        categorical={}, temporal={}, rules={},
        response=truth + rng.normal(0.0, noise, n), noiseless=truth,
        noise_scale=noise,
    )


CAT_CARDINALITIES = (300, 200, 100, 60, 40, 30, 25, 20, 15, 10)
HOURS = 17_520  # two years of hourly time points
CAT_TEMPORAL_RECORDS = 100_000


def cat_temporal(seed, part):
    """Ten categoricals pooling 800 labels, an hourly temporal feature with
    a daily period, and two numerical columns of 50 distinct values."""
    n = CAT_TEMPORAL_RECORDS
    params = np.random.default_rng(2)
    rng = np.random.default_rng([seed, part, 2])
    truth = np.zeros(n)
    numerical = {}
    for j in range(2):
        x = rng.integers(0, 50, n) / 5.0
        numerical[f"x{j}"] = x
        truth += _shape(params, x, 0.0, 10.0)
    categorical = {}
    weights = {}
    for j, card in enumerate(CAT_CARDINALITIES):
        name = f"c{j}"
        categorical[name] = _categorical(rng, params, n, name, card, 0.5,
                                         truth, weights)
    period = 24
    t = rng.integers(0, HOURS, n)
    phase = t % period
    profile = 1.5 * np.sin(2 * np.pi * np.arange(period) / period) \
        + 0.5 * np.cos(4 * np.pi * np.arange(period) / period)
    profile -= profile.mean()
    trend = 2.0 * np.sin(2 * np.pi * t / HOURS) + 0.5 * t / HOURS
    truth += trend + profile[phase]
    noise = 1.0
    return Workload(
        backend="fast-kernel", numerical=numerical,
        categorical=categorical, temporal={"hour": t.astype(np.int64)},
        rules={"hour": (1, period)},
        response=truth + rng.normal(0.0, noise, n), noiseless=truth,
        noise_scale=noise, weights=weights, seasonal={"hour": profile},
    )


DAYS = 730
PENALIZED_EXACT_RECORDS = 200_000


def penalized_exact(seed, part):
    """Numerical columns on a 0.01 grid and a daily temporal feature with a
    weekly period; penalized backend."""
    n = PENALIZED_EXACT_RECORDS
    params = np.random.default_rng(3)
    rng = np.random.default_rng([seed, part, 3])
    truth = np.zeros(n)
    numerical = {}
    for j in range(4):
        x = rng.integers(0, 1000, n) / 100.0
        numerical[f"x{j}"] = x
        truth += _shape(params, x, 0.0, 10.0)
    period = 7
    t = rng.integers(0, DAYS, n)
    profile = np.array([0.6, 0.3, 0.1, 0.0, 0.2, -0.5, -0.7])
    profile -= profile.mean()
    trend = np.sin(2 * np.pi * t / DAYS)
    truth += trend + profile[t % period]
    noise = 1.0
    return Workload(
        backend="penalized", numerical=numerical,
        categorical={}, temporal={"day": t.astype(np.int64)},
        rules={"day": (1, period)},
        response=truth + rng.normal(0.0, noise, n), noiseless=truth,
        noise_scale=noise, seasonal={"day": profile},
    )


GENERATORS = {
    "numeric-wide": numeric_wide,
    "cat-temporal": cat_temporal,
    "penalized-exact": penalized_exact,
}
