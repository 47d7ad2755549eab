"""Synthetic tabular data with known additive ground truth.

Seven factors drive generation: record count, feature count, categorical
cardinality cap, numerical feature ratio, temporal presence, seasonality
strength, and difficulty.  Easy mode sums independent univariate pieces;
hard mode adds two-feature interaction terms scaled to dominate the
response and five times the noise.  Every component vector is returned
alongside the data, so fitted models can be scored against the truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset

EASY_NOISE_FVE = 0.001
HARD_NOISE_FVE = 0.005
INTERACTION_FVE_TARGET = 0.65
TEMPORAL_PERIOD = 10          # time steps per seasonal cycle
TEMPORAL_RANGE = 200          # discrete times drawn from [1, 200]

# univariate pieces: linear, quadratic, sinusoid
EASY_KINDS = ("linear", "quadratic", "sinusoid")
EASY_PROBS = (0.3, 0.3, 0.4)
# hard mode adds bilinear and oscillatory two-feature interactions
HARD_KINDS = ("linear", "quadratic", "sinusoid", "bilinear", "oscillatory")
HARD_PROBS = (0.1, 0.1, 0.2, 0.2, 0.4)


@dataclass(frozen=True)
class SynthConfig:
    """Generator factors.

    ``n_features`` counts every feature, including the temporal one when
    present.  ``seasonality_ratio`` is the seasonal component's target
    fraction of variance explained.
    """

    n_records: int = 100_000
    n_features: int = 100
    max_cardinality: int = 10
    numerical_ratio: float = 0.8
    has_temporal: bool = False
    seasonality_ratio: float = 0.0
    difficulty: str = "easy"
    seed: int = 0

    def __post_init__(self):
        if self.n_records < 1:
            raise ValueError("n_records must be positive")
        if self.n_features < 1:
            raise ValueError("n_features must be positive")
        if not 0.0 <= self.numerical_ratio <= 1.0:
            raise ValueError("numerical_ratio must lie in [0, 1]")
        if not 0.0 <= self.seasonality_ratio <= 0.1:
            raise ValueError("seasonality_ratio must lie in [0, 0.1]")
        if self.difficulty not in ("easy", "hard"):
            raise ValueError("difficulty must be 'easy' or 'hard'")
        if self.max_cardinality < 2:
            raise ValueError("max_cardinality must be at least 2")
        if self.seasonality_ratio > 0 and not self.has_temporal:
            raise ValueError(
                "seasonality_ratio needs has_temporal=True"
            )
        counts = self.feature_counts()
        if counts["categorical"] < 0:
            raise ValueError("inconsistent factors: negative feature count")

    def feature_counts(self):
        n_temporal = 1 if self.has_temporal else 0
        n_numerical = round(self.numerical_ratio * self.n_features)
        n_numerical = min(n_numerical, self.n_features - n_temporal)
        return {
            "numerical": n_numerical,
            "categorical": self.n_features - n_numerical - n_temporal,
            "temporal": n_temporal,
        }


@dataclass
class GroundTruth:
    """Per-component response vectors; they sum to the response exactly."""

    contributions: dict            # feature name -> vector
    interactions: dict             # (name_a, name_b) -> vector
    seasonal: np.ndarray | None
    noise: np.ndarray
    noise_fve: float
    interaction_fve: float
    seasonality_fve: float


def draw_function_kinds(rng, n_slots, difficulty):
    """Fill exactly ``n_slots`` feature slots with function draws.

    Interactions consume two slots; when a single slot remains, the draw
    is repeated over the univariate kinds only (probabilities
    renormalized).
    """
    kinds = []
    remaining = n_slots
    while remaining > 0:
        if difficulty == "easy":
            kind = rng.choice(EASY_KINDS, p=EASY_PROBS)
        elif remaining == 1:
            probs = np.array(HARD_PROBS[:3]) / sum(HARD_PROBS[:3])
            kind = rng.choice(HARD_KINDS[:3], p=probs)
        else:
            kind = rng.choice(HARD_KINDS, p=HARD_PROBS)
        kind = str(kind)
        kinds.append(kind)
        remaining -= 2 if kind in ("bilinear", "oscillatory") else 1
    return kinds


def _univariate(rng, kind, x):
    if kind == "linear":
        return rng.uniform(-2, 2) * x
    if kind == "quadratic":
        return rng.uniform(-1, 1) * x * x + rng.uniform(-2, 2) * x
    if kind == "sinusoid":
        amp = rng.uniform(-2, 2)
        freq = rng.uniform(0, 6 * np.pi)
        phase = rng.uniform(-0.5, 0.5)
        return amp * np.sin(freq * x + phase)
    raise ValueError(kind)


def _interaction(rng, kind, x1, x2):
    if kind == "bilinear":
        b1, b2, b3 = rng.uniform(-2, 2, 3)
        return b1 * x1 * x2 + b2 * x1 + b3 * x2
    if kind == "oscillatory":
        b4 = rng.uniform(-2, 2)
        b5, b6, b7 = rng.uniform(0, 4 * np.pi, 3)
        b8 = rng.uniform(-0.5, 0.5)
        return b4 * np.cos(b5 * x1 * x2 + b6 * x1 + b7 * x2 + b8)
    raise ValueError(kind)


def _scale_for_fve(base, component, kappa):
    """Scale factor s so Var(s*component)/Var(base + s*component) = kappa.

    Uses the exact sample moments; ``kappa`` must be below 1.
    """
    vb = float(np.var(base))
    vc = float(np.var(component))
    if vc == 0.0 or kappa <= 0.0:
        return 0.0
    cov = float(np.mean(
        (base - base.mean()) * (component - component.mean())
    ))
    a = vc * (1.0 - kappa)
    disc = kappa * kappa * cov * cov + a * kappa * vb
    return (kappa * cov + math.sqrt(disc)) / a


def generate(config):
    """Draw one dataset plus its ground-truth decomposition.

    Returns
    -------
    (Dataset, GroundTruth)
        The response equals the sum of all ground-truth components plus
        the noise vector, exactly.
    """
    rng = np.random.default_rng(config.seed)
    n = config.n_records
    counts = config.feature_counts()

    numerical = {}
    contributions = {}
    interactions = {}

    kinds = draw_function_kinds(rng, counts["numerical"], config.difficulty)
    slot = 0
    for kind in kinds:
        if kind in ("bilinear", "oscillatory"):
            name_a, name_b = f"num_{slot}", f"num_{slot + 1}"
            x1 = rng.uniform(0, 10, n)
            x2 = rng.uniform(0, 10, n)
            numerical[name_a] = x1
            numerical[name_b] = x2
            interactions[(name_a, name_b)] = _interaction(rng, kind, x1, x2)
            slot += 2
        else:
            name = f"num_{slot}"
            x = rng.uniform(0, 10, n)
            numerical[name] = x
            contributions[name] = _univariate(rng, kind, x)
            slot += 1

    categorical = {}
    for j in range(counts["categorical"]):
        name = f"cat_{j}"
        cardinality = int(rng.integers(2, config.max_cardinality + 1))
        weights = rng.uniform(0, 15, cardinality)
        codes = rng.integers(0, cardinality, n)
        categorical[name] = np.array([f"v{k}" for k in range(cardinality)])[
            codes
        ]
        contributions[name] = weights[codes]

    temporal = {}
    seasonal_raw = None
    if counts["temporal"]:
        t = rng.integers(1, TEMPORAL_RANGE + 1, n)
        temporal["time"] = t
        phase_shift = rng.uniform(-5, 5)
        seasonal_raw = np.sin(2 * np.pi * t / TEMPORAL_PERIOD + phase_shift)

    base = np.zeros(n)
    for vec in contributions.values():
        base += vec

    noise_fve = (
        HARD_NOISE_FVE if config.difficulty == "hard" else EASY_NOISE_FVE
    )

    interaction_sum = np.zeros(n)
    if interactions:
        for vec in interactions.values():
            interaction_sum += vec
        reserved = noise_fve + config.seasonality_ratio
        kappa = INTERACTION_FVE_TARGET / (1.0 - reserved)
        s = _scale_for_fve(base, interaction_sum, kappa)
        for key in interactions:
            interactions[key] = s * interactions[key]
        interaction_sum *= s

    signal = base + interaction_sum

    seasonal = None
    if seasonal_raw is not None:
        if config.seasonality_ratio > 0:
            kappa = config.seasonality_ratio / (1.0 - noise_fve)
            amplitude = _scale_for_fve(signal, seasonal_raw, kappa)
        else:
            amplitude = 0.0
        seasonal = amplitude * seasonal_raw
        signal = signal + seasonal

    sigma = math.sqrt(
        noise_fve / (1.0 - noise_fve) * max(float(np.var(signal)), 1e-300)
    )
    noise = rng.normal(0.0, 1.0, n)
    noise_sd = float(np.std(noise))
    if noise_sd > 0:
        noise *= sigma / noise_sd

    response = signal + noise
    tss = float(np.var(response))

    truth = GroundTruth(
        contributions=contributions,
        interactions=interactions,
        seasonal=seasonal,
        noise=noise,
        noise_fve=float(np.var(noise)) / tss if tss else 0.0,
        interaction_fve=(
            float(np.var(interaction_sum)) / tss if interactions else 0.0
        ),
        seasonality_fve=(
            float(np.var(seasonal)) / tss if seasonal is not None else 0.0
        ),
    )
    dataset = Dataset(
        response=response,
        numerical=numerical,
        categorical=categorical,
        temporal=temporal,
    )
    return dataset, truth


# --- preset experiment configurations ----------------------------------------

_SWEEPS = {
    "varyRecords": dict(
        records=(10_000, 50_000, 100_000, 500_000),
        features=100, max_cardinality=10, ratio=0.8, temporal=False,
        seasonality=(0.0,),
    ),
    "varyFeatures": dict(
        records=(100_000,),
        features=(20, 50, 100, 200), max_cardinality=10, ratio=0.8,
        temporal=False, seasonality=(0.0,),
    ),
    "varyNumRatio": dict(
        records=(100_000,),
        features=100, max_cardinality=38,
        ratio=(0.0, 0.25, 0.5, 0.75, 1.0), temporal=False,
        seasonality=(0.0,),
    ),
    "varySeasonality": dict(
        records=(100_000,),
        features=51, max_cardinality=10, ratio=40.0 / 51.0, temporal=True,
        seasonality=(0.0, 0.02, 0.05, 0.1),
    ),
    "ablation1": dict(
        records=(50_000, 100_000, 500_000),
        features=100, max_cardinality=10, ratio=1.0, temporal=False,
        seasonality=(0.0,), difficulty="hard",
    ),
    "ablation2": dict(
        records=(100_000,),
        features=(50, 100, 200), max_cardinality=10, ratio=1.0,
        temporal=False, seasonality=(0.0,), difficulty="hard",
    ),
}


def experiment_sweep_configs(name, difficulty="hard", scale=1.0, seed=0):
    """A named experiment sweep as a list of generator configs.

    ``scale`` multiplies every record count (floored at 500) so the
    sweeps can run at desk scale.

    Raises
    ------
    ValueError
        For an unknown sweep name.
    """
    if name not in _SWEEPS:
        raise ValueError(
            f"unknown configuration '{name}'; choose from "
            f"{sorted(_SWEEPS)}"
        )
    spec = _SWEEPS[name]
    difficulty = spec.get("difficulty", difficulty)

    def as_tuple(value):
        return value if isinstance(value, tuple) else (value,)

    configs = []
    for records in as_tuple(spec["records"]):
        for features in as_tuple(spec["features"]):
            for ratio in as_tuple(spec["ratio"]):
                for seasonality in as_tuple(spec["seasonality"]):
                    configs.append(SynthConfig(
                        n_records=max(500, int(records * scale)),
                        n_features=features,
                        max_cardinality=spec["max_cardinality"],
                        numerical_ratio=ratio,
                        has_temporal=spec["temporal"],
                        seasonality_ratio=seasonality,
                        difficulty=difficulty,
                        seed=seed,
                    ))
    return configs
