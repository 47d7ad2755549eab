"""Fast explainable additive regression.

A generalized additive model over numerical, categorical, and temporal
features: per-feature shape curves, one jointly learned weight per
categorical value, and trend plus seasonal components per temporal
feature, trained by a three-stage block iteration that converges to the
penalized least-squares optimum.
"""

from .data import (
    Dataset,
    build_homogeneous_encoding,
    compress_time_points,
    partition_phases,
)
from .model import (
    FxamModel,
    ShapeCurve,
    TemporalCurves,
    deserialize,
    evaluate_shape,
    export_contributions,
    predict,
    predict_batch,
    serialize,
)
from .smoothers import (
    default_bandwidth,
    epanechnikov,
    fast_kernel_smooth,
    naive_kernel_smooth,
    penalized_smooth,
    smoother_matrix,
)
from .categorical import (
    ConvergenceError,
    RidgeSystem,
    closed_form_ridge,
    gram_assemble,
    nga_ridge_solve,
    power_iteration_max_eig,
)
from .temporal import DecomposeConfig, TemporalComponents, decompose
from .training import (
    TemporalRule,
    TrainConfig,
    TrainingProblem,
    TrainState,
    initial_state,
    normal_equation_direct_solve,
    normal_equation_residuals,
    objective_value,
    stage1_backfit,
    stage2_categorical,
    stage3_temporal,
    tsi_train,
)
from .synthetic import SynthConfig, experiment_sweep_configs, generate
from .evaluation import (
    ColumnSpec,
    SchemaFile,
    ingest_csv,
    kfold_split,
    load_schema,
    rmse,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset", "build_homogeneous_encoding", "compress_time_points",
    "partition_phases",
    "FxamModel", "ShapeCurve", "TemporalCurves", "deserialize",
    "evaluate_shape", "export_contributions", "predict", "predict_batch",
    "serialize",
    "default_bandwidth", "epanechnikov", "fast_kernel_smooth",
    "naive_kernel_smooth", "penalized_smooth", "smoother_matrix",
    "ConvergenceError", "RidgeSystem", "closed_form_ridge", "gram_assemble",
    "nga_ridge_solve", "power_iteration_max_eig",
    "DecomposeConfig", "TemporalComponents", "decompose",
    "TemporalRule", "TrainConfig", "TrainingProblem", "TrainState",
    "initial_state", "normal_equation_direct_solve",
    "normal_equation_residuals", "objective_value", "stage1_backfit",
    "stage2_categorical", "stage3_temporal", "tsi_train",
    "SynthConfig", "experiment_sweep_configs", "generate",
    "ColumnSpec", "SchemaFile", "ingest_csv", "kfold_split",
    "load_schema", "rmse", "run_experiment",
]
