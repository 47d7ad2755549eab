"""Fast explainable additive regression.

A generalized additive model over numerical, categorical, and temporal
features: per-feature shape curves, one jointly learned weight per
categorical value, and trend plus seasonal components per temporal
feature, trained by a three-stage block iteration that converges to the
penalized least-squares optimum.

The names below are the package's entry points; lower-level pieces
(smoothers, stage functions, the optimality oracle in ``fxam.oracle``)
are imported from their submodules.
"""

from .data import Dataset, build_homogeneous_encoding
from .model import FxamModel, deserialize, predict_batch, serialize
from .smoothers import fast_kernel_smooth, naive_kernel_smooth
from .categorical import (
    ConvergenceError,
    closed_form_ridge,
    gram_assemble,
    nga_ridge_solve,
)
from .training import TemporalRule, TrainConfig, TrainingProblem, tsi_train
from .synthetic import SynthConfig, generate
from .evaluation import ingest_csv, load_schema, rmse, run_experiment

__version__ = "0.1.0"

__all__ = [
    "Dataset", "build_homogeneous_encoding",
    "FxamModel", "deserialize", "predict_batch", "serialize",
    "fast_kernel_smooth", "naive_kernel_smooth",
    "ConvergenceError", "closed_form_ridge", "gram_assemble",
    "nga_ridge_solve",
    "TemporalRule", "TrainConfig", "TrainingProblem", "tsi_train",
    "SynthConfig", "generate",
    "ingest_csv", "load_schema", "rmse", "run_experiment",
]
