"""Three-stage training for the additive model.

One cycle runs backfitting over the numerical features to partial
convergence (Stage 1), a joint ridge solve for every categorical weight
at once (Stage 2: an exact Cholesky solve against a factor built once per
fit up to ``CLOSED_FORM_LIMIT`` pooled labels, accelerated gradient
above), and seasonal-trend partial learning per temporal feature
(Stage 3: one direct solve of the trend/seasonal split on the penalized
backend); cycles repeat until the penalized objective stalls.  With the
penalized backend every stage is an exact block minimization, so the
objective is non-increasing and the fixed point solves the model's
normal equations; :mod:`fxam.oracle` checks that against a dense direct
solve of the same system.

Two Stage 1 accelerations are available: intelligent sampling (shape
curves initialized from a subsample whose size
:func:`estimate_sample_size` bounds from the summaries that
:func:`pilot_estimates` takes in one sweep over a pilot subsample) and
dynamic feature iteration (features smoothed in descending order of
:func:`predictive_power`).  Both change only the path, not the fixed
point.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .categorical import (
    CLOSED_FORM_LIMIT,
    ConvergenceError,
    RidgeSystem,
    gram_assemble,
    nga_ridge_solve,
    power_iteration_max_eig,
    ridge_objective,
)
from .data import (
    build_homogeneous_encoding,
    compress_time_points,
    partition_phases,
)
from .model import FxamModel, ShapeCurve, TemporalCurves
from .smoothers import (
    KernelSmootherPlan,
    curvature_penalty,
    default_bandwidth,
    penalized_apply,
    penalized_factor,
)
from .temporal import (
    DecomposeConfig,
    _add_split_penalty,
    build_smoothers,
    decompose,
)

BACKENDS = ("penalized", "fast-kernel")
# TrainConfig's numeric fields: floats must be finite, counts integers
_POSITIVE = (
    "categorical_ridge", "bandwidth_factor", "stage_tol_factor",
    "inner_tol_factor", "outer_tol", "solver_tol", "sampling_gamma",
)
_NONNEGATIVE = ("smoothness", "trend_smoothness", "seasonal_smoothness")
_MIN_COUNTS = {
    "max_stage1_passes": 1, "max_inner_iterations": 1, "max_cycles": 1,
    "pilot_size": 10, "sampling_threshold": 1, "seed": 0,
}


@dataclass(frozen=True)
class TemporalRule:
    """Seasonal period and time step for one temporal feature."""

    period: int
    tau: int = 1

    def __post_init__(self):
        if self.period <= 1:
            raise ValueError("seasonal period must exceed 1")
        if self.tau <= 0:
            raise ValueError("tau must be a positive integer")


@dataclass(frozen=True)
class TrainConfig:
    """Every training hyperparameter in one place.

    ``smoothness`` is the curvature penalty for numerical features,
    ``categorical_ridge`` the L2 weight penalty, ``trend_smoothness`` and
    ``seasonal_smoothness`` the temporal penalties.  The kernel backend
    ignores the curvature penalties and uses the bandwidth rule
    ``bandwidth_factor * range * n^(-1/5)`` instead.
    """

    backend: str = "fast-kernel"
    smoothness: float = 1.0
    categorical_ridge: float = 1.0
    trend_smoothness: float = 1.0
    seasonal_smoothness: float = 1.0
    bandwidth_factor: float = 0.5
    temporal_rules: dict = field(default_factory=dict)  # name -> TemporalRule
    stage_tol_factor: float = 1e-4     # Stage 1 partial convergence, x sd(y)
    max_stage1_passes: int = 100
    # stage-3 sweeps, kernel backend only (the penalized backend solves
    # each decomposition directly)
    inner_tol_factor: float = 1e-6
    max_inner_iterations: int = 50
    outer_tol: float = 1e-6            # relative objective decrease per cycle
    max_cycles: int = 50
    solver_tol: float = 1e-8           # categorical gradient residual,
                                       # above CLOSED_FORM_LIMIT labels
    sampling: bool = True
    sampling_gamma: float = 1.0
    pilot_size: int = 10_000
    sampling_threshold: int = 100_000  # records needed to activate sampling
    dynamic_ordering: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")
        for label in _POSITIVE + _NONNEGATIVE:
            value = getattr(self, label)
            if (isinstance(value, bool) or not isinstance(value, Real)
                    or not math.isfinite(value) or value < 0
                    or (value == 0 and label in _POSITIVE)):
                kind = "positive" if label in _POSITIVE else "nonnegative"
                raise ValueError(
                    f"{label} must be a finite {kind} number, got {value!r}"
                )
        for label, low in _MIN_COUNTS.items():
            value = getattr(self, label)
            if (isinstance(value, bool) or not isinstance(value, Integral)
                    or value < low):
                raise ValueError(
                    f"{label} must be an integer of at least {low}, "
                    f"got {value!r}"
                )
        for label in ("sampling", "dynamic_ordering"):
            if not isinstance(getattr(self, label), bool):
                raise ValueError(f"{label} must be true or false")
        for rule in self.temporal_rules.values():
            if not isinstance(rule, TemporalRule):
                raise ValueError("temporal_rules values must be TemporalRule")


@dataclass
class PilotEstimate:
    """Subsample summaries of one feature's marginal shape.

    ``variance`` is the residual variance around the pilot curve,
    ``sup_squared`` the largest squared curve value, and ``max_slope`` the
    steepest secant of the pilot curve over one smoothing window.
    """

    variance: float
    sup_squared: float
    max_slope: float


@dataclass
class TrainState:
    """Mutable fitting state; the bookkeeping identity
    ``residual == y - intercept - sum(all fitted components)`` holds at
    the end of every stage, and every numerical component has record mean
    zero."""

    intercept: float
    residual: np.ndarray
    numerical_curves: dict      # name -> values on that feature's knots
    numerical_fits: dict        # name -> record-space vector
    beta: np.ndarray
    categorical_fit: np.ndarray
    temporal_components: dict   # name -> TemporalComponents
    trend_fits: dict            # name -> record-space vector
    seasonal_fits: dict
    cycles: int = 0
    converged: bool = False
    objective_history: list = field(default_factory=list)
    stage_objectives: list = field(default_factory=list)  # (cycle, stage, L)
    stage1_passes: list = field(default_factory=list)     # per cycle
    stage3_sweeps: list = field(default_factory=list)     # per decompose
    stage3_converged: list = field(default_factory=list)  # per decompose


class _NumericalCache:
    """Per-feature smoothing structures, fixed for the whole run."""

    def __init__(self, name, x, config):
        self.x = np.asarray(x, dtype=float)
        self.knots, self.inverse, self.counts = np.unique(
            self.x, return_inverse=True, return_counts=True
        )
        self.counts = self.counts.astype(float)
        self.bandwidth = default_bandwidth(self.x, config.bandwidth_factor)
        # centered scatter and knot gaps back the ordering heuristic
        self.x_scatter = float(np.sum((self.x - self.x.mean()) ** 2))
        self.knot_gaps = np.diff(self.knots)
        self.factor = None
        self.plan = None
        if config.backend == "penalized":
            if self.knots.size > 2 and config.smoothness > 0:
                try:
                    self.factor = penalized_factor(
                        self.knots, config.smoothness, self.counts
                    )
                except np.linalg.LinAlgError as exc:
                    raise ConvergenceError(
                        f"numerical feature '{name}': the penalized smoother "
                        "does not factor with "
                        f"smoothness={config.smoothness}: {exc}"
                    ) from exc
        else:
            # float64 accumulation: under the bandwidth rule the window
            # cancellation amplifies roundoff by ~n^0.4, orders of
            # magnitude below every training tolerance
            self.plan = KernelSmootherPlan(
                self.knots, self.bandwidth, self.counts, dtype=np.float64
            )
        self.config = config

    def knot_means(self, record_values):
        sums = np.bincount(self.inverse, weights=record_values,
                           minlength=self.knots.size)
        return sums / self.counts

    def smooth(self, knot_target):
        if self.plan is not None:
            return self.plan.smooth(knot_target)
        if self.factor is None:
            return knot_target.copy()
        return penalized_apply(self.factor, knot_target, self.counts)


class _TemporalCache:
    def __init__(self, name, times, y, rule, config):
        self.rule = rule
        self.series = compress_time_points(times, y)
        self.partition = partition_phases(self.series, rule.tau, rule.period)
        self.weights = self.series.weights.astype(float)
        self.decompose_config = DecomposeConfig(
            backend=config.backend,
            trend_penalty=config.trend_smoothness,
            seasonal_penalty=config.seasonal_smoothness,
            bandwidth_factor=config.bandwidth_factor,
            tol_factor=config.inner_tol_factor,
            max_iterations=config.max_inner_iterations,
        )
        try:
            self.smoothers = build_smoothers(
                self.series, self.partition, self.decompose_config
            )
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise ConvergenceError(
                f"temporal feature '{name}': the trend/seasonal system does "
                f"not factor with trend_smoothness={config.trend_smoothness}, "
                f"seasonal_smoothness={config.seasonal_smoothness}: {exc}"
            ) from exc

    def knot_means(self, record_values):
        sums = np.bincount(self.series.back_map, weights=record_values,
                           minlength=self.series.n_points)
        return sums / self.weights


class TrainingProblem:
    """Immutable per-dataset context shared by the stages."""

    def __init__(self, dataset, config):
        self.dataset = dataset
        self.config = config
        self.y = dataset.response
        self.n = dataset.n_records
        self.scale = float(np.std(self.y))
        self.numerical = {
            name: _NumericalCache(name, col, config)
            for name, col in dataset.numerical.items()
        }
        self.encoding = build_homogeneous_encoding(dataset)
        self.gram_joint = None
        self.gram_joint_factor = None
        self.gram_joint_lambda_max = None
        c = self.encoding.cardinality
        if c:
            gram = gram_assemble(
                self.encoding, np.zeros(self.n), config.categorical_ridge
            ).gram
            # the intercept is solved jointly with the categorical block
            # (the two share the constant direction, and alternating them
            # converges at the shrinking factor of that direction, which
            # approaches 1 as records grow); the augmented system keeps
            # the intercept unpenalized
            counts = np.bincount(
                self.encoding.row_indices.ravel(), minlength=c
            ).astype(float)
            if c + 1 <= CLOSED_FORM_LIMIT:
                # [1 Z]'[1 Z] + diag(0, ridge*I) is positive definite for
                # n > 0, so one Cholesky factor serves every cycle
                joint = np.empty((c + 1, c + 1))
                joint[0, 0] = float(self.n)
                joint[0, 1:] = counts
                joint[1:, 0] = counts
                joint[1:, 1:] = gram
                self.gram_joint = joint
                try:
                    self.gram_joint_factor = sla.cho_factor(joint, lower=True)
                except np.linalg.LinAlgError as exc:
                    raise ConvergenceError(
                        "joint categorical Gram is not positive definite "
                        f"with categorical_ridge={config.categorical_ridge}: "
                        f"{exc}"
                    ) from exc
            else:
                self.gram_joint = sp.bmat(
                    [
                        [np.array([[float(self.n)]]), counts[None, :]],
                        [counts[:, None], gram],
                    ],
                    format="csr",
                )
                self.gram_joint_lambda_max = power_iteration_max_eig(
                    self.gram_joint
                )
        self.temporal = {}
        for name, times in dataset.temporal.items():
            rule = config.temporal_rules.get(name)
            if rule is None:
                raise ValueError(
                    f"temporal feature '{name}' has no TemporalRule "
                    "(period and tau) in the training config"
                )
            self.temporal[name] = _TemporalCache(
                name, times, self.y, rule, config
            )

    def joint_ridge_system(self, target):
        """Augmented (intercept, weights) system for a record-space target."""
        rhs = np.concatenate(
            [[float(target.sum())], self.categorical_rhs(target)]
        )
        return RidgeSystem(
            gram=self.gram_joint, rhs=rhs,
            ridge=self.config.categorical_ridge,
        )

    def categorical_rhs(self, target):
        rows = self.encoding.row_indices
        q = rows.shape[1]
        return np.bincount(
            rows.ravel(), weights=np.repeat(target, q),
            minlength=self.encoding.cardinality,
        )

    def categorical_expand(self, beta):
        rows = self.encoding.row_indices
        if rows.shape[1] == 0:
            return np.zeros(self.n)
        return beta[rows].sum(axis=1)


def initial_state(problem):
    """Intercept at the response mean, every component at zero."""
    y = problem.y
    intercept = float(y.mean())
    n = problem.n
    return TrainState(
        intercept=intercept,
        residual=y - intercept,
        numerical_curves={
            name: np.zeros(cache.knots.size)
            for name, cache in problem.numerical.items()
        },
        numerical_fits={name: np.zeros(n) for name in problem.numerical},
        beta=np.zeros(problem.encoding.cardinality),
        categorical_fit=np.zeros(n),
        temporal_components={},
        trend_fits={name: np.zeros(n) for name in problem.temporal},
        seasonal_fits={name: np.zeros(n) for name in problem.temporal},
    )


# --- Stage 1: numerical backfitting ----------------------------------------

def predictive_power(x_scatter, tss, cross, n, max_slope, bandwidth):
    """Ordering score: explained-variance gain minus a smoothing-bias term.

    ``2 * tss * r^2 / (n - 2) - (2 * max_slope * bandwidth)^2``, where
    ``x_scatter`` is the feature's centered sum of squares, ``tss`` the
    residual's, and ``cross`` the feature dotted with the centered
    residual, so ``r^2 = cross^2 / (x_scatter * tss)`` is the squared
    Pearson correlation; r is defined as zero when either side has no
    variance.
    """
    if tss == 0.0 or x_scatter == 0.0:
        r_sq = 0.0
    else:
        r_sq = cross ** 2 / (x_scatter * tss)
    bias = 2.0 * max_slope * bandwidth
    return 2.0 * tss * r_sq / (n - 2) - bias * bias


def order_features(powers):
    """Descending stable order; ties keep their original position."""
    powers = np.asarray(powers, dtype=float)
    return np.argsort(-powers, kind="stable")


def _stage1_order(problem, state, config):
    """Feature order for the next pass; descending predictive power.

    Each feature's slope is its current curve's steepest knot-to-knot
    secant; its scatter is cached, so one ordering costs one dot product
    per feature.
    """
    names = list(problem.numerical)
    if not config.dynamic_ordering or len(names) < 2 or problem.n < 3:
        return names
    residual = state.residual
    centered = residual - residual.mean()
    tss = float(centered @ centered)
    powers = np.empty(len(names))
    for i, name in enumerate(names):
        cache = problem.numerical[name]
        curve = state.numerical_curves[name]
        if cache.knots.size >= 2:
            slope = float(np.max(np.abs(
                np.diff(curve) / cache.knot_gaps
            )))
        else:
            slope = 0.0
        # sum(centered) == 0, so the plain dot is the centered one
        powers[i] = predictive_power(
            cache.x_scatter, tss, float(cache.x @ centered), problem.n,
            slope, cache.bandwidth,
        )
    return [names[i] for i in order_features(powers)]


def stage1_backfit(problem, state, config=None):
    """Backfit the numerical features to partial convergence.

    Each update smooths the feature's partial residual, recentres the
    curve to record mean zero, and folds the mean into the intercept;
    passes repeat until the largest component change per pass falls
    under ``stage_tol_factor * sd(y)``.
    """
    config = config or problem.config
    if not problem.numerical:
        return state
    tol = config.stage_tol_factor * max(problem.scale, 1e-12)
    n = problem.n
    passes = 0
    # the predictive-power order is refreshed once per stage entry (that
    # is, once per outer cycle) and reused by every pass within it
    order = _stage1_order(problem, state, config)
    for _ in range(config.max_stage1_passes):
        passes += 1
        max_change = 0.0
        for name in order:
            cache = problem.numerical[name]
            f_old = state.numerical_fits[name]
            target = cache.knot_means(state.residual + f_old)
            curve = cache.smooth(target)
            mean = float(cache.counts @ curve) / n
            curve = curve - mean
            f_new = curve[cache.inverse]
            state.residual += f_old - f_new - mean
            state.intercept += mean
            state.numerical_curves[name] = curve
            state.numerical_fits[name] = f_new
            change = float(np.max(np.abs(f_new - f_old)))
            max_change = max(max_change, change)
        if max_change < tol:
            break
    state.stage1_passes.append(passes)
    return state


# --- Stage 2: joint categorical solve ---------------------------------------

def stage2_categorical(problem, state, config=None):
    """Solve every categorical weight jointly against the current residual.

    The intercept rides along as an unpenalized coordinate of the same
    solve: it shares the constant direction with the pooled categorical
    block, and solving the pair together replaces a slow two-block
    alternation with one exact minimization.  At stage exit the weights
    satisfy the plain ridge equation for the updated intercept's partial
    residual.

    Up to ``CLOSED_FORM_LIMIT`` pooled labels (intercept included) the
    solve is one pair of triangular solves against the joint Gram's
    Cholesky factor, built once per fit by :class:`TrainingProblem`.
    Above that, accelerated gradient warm-starts from the previous
    solution and stops at ``solver_tol``.  Either way, if the answer is
    (numerically) worse than the previous solution on the block
    objective, the previous solution is kept, so the stage never ascends.
    """
    config = config or problem.config
    if problem.encoding.cardinality == 0:
        return state
    target = state.residual + state.categorical_fit + state.intercept
    system = problem.joint_ridge_system(target)
    warm = np.concatenate([[state.intercept], state.beta])
    if problem.gram_joint_factor is not None:
        solution = sla.cho_solve(problem.gram_joint_factor, system.rhs)
    else:
        solution = nga_ridge_solve(
            system, tol=config.solver_tol, beta0=warm,
            lam_max=problem.gram_joint_lambda_max,
        ).beta
    if ridge_objective(system, solution) > ridge_objective(system, warm):
        solution = warm
    intercept = float(solution[0])
    beta = solution[1:]
    fit = problem.categorical_expand(beta)
    state.residual += (
        (state.intercept - intercept) + (state.categorical_fit - fit)
    )
    state.intercept = intercept
    state.beta = beta
    state.categorical_fit = fit
    return state


# --- Stage 3: temporal partial learning -------------------------------------

def stage3_temporal(problem, state, config=None):
    """Partial learning per temporal feature, in declaration order.

    The record-space partial residual is compressed to the feature's time
    grid (weighted means), decomposed, and expanded back.  The penalized
    backend solves the decomposition exactly, keeping the previous
    components if the solve would raise the local objective; the kernel
    backend runs sweeps warm-started from them, at most
    ``max_inner_iterations``.  Each call's sweep count and convergence
    flag are recorded.  The trend's
    weighted mean is folded into the intercept, which together with the
    decomposition's seasonal conventions makes the fixed point unique.
    """
    config = config or problem.config
    for name, cache in problem.temporal.items():
        f_trend = state.trend_fits[name]
        f_seasonal = state.seasonal_fits[name]
        target = cache.knot_means(state.residual + f_trend + f_seasonal)
        components = decompose(
            cache.series, cache.partition, target,
            cache.decompose_config,
            initial=state.temporal_components.get(name),
            smoothers=cache.smoothers,
        )
        state.stage3_sweeps.append(components.iterations)
        state.stage3_converged.append(components.converged)
        mean = float(np.average(components.trend, weights=cache.weights))
        components.trend = components.trend - mean
        new_trend = components.trend[cache.series.back_map]
        new_seasonal = components.seasonal[cache.series.back_map]
        state.residual += (
            f_trend + f_seasonal - new_trend - new_seasonal - mean
        )
        state.intercept += mean
        state.temporal_components[name] = components
        state.trend_fits[name] = new_trend
        state.seasonal_fits[name] = new_seasonal
    return state


# --- objective and the full iteration ---------------------------------------

def objective_value(problem, state, config=None):
    """Penalized training objective at the current state.

    Residual sum of squares plus the curvature penalties of every
    numerical curve, the squared categorical weights, and the trend and
    per-phase seasonal curvature penalties (temporal penalties are
    evaluated on the compressed, weighted time points).  With the kernel
    backend the curvature functional is not what the smoother minimizes,
    so only the residual sum of squares is reported.
    """
    config = config or problem.config
    value = float(state.residual @ state.residual)
    if config.backend != "penalized":
        return value
    return _add_penalties(
        value, problem, config, state.numerical_curves, state.beta,
        {name: (components.trend, components.seasonal)
         for name, components in state.temporal_components.items()},
    )


def _add_penalties(value, problem, config, numerical_curves, beta, splits):
    """``value`` plus every penalty of the model, added term by term.

    The terms are each numerical curve's curvature, the categorical
    ridge, and each temporal feature's trend and per-phase seasonal
    curvature; ``splits`` maps temporal features, in declaration order,
    to their (trend, seasonal) values on the compressed time points, and
    a feature missing from it adds nothing.  Adding onto ``value`` in this
    fixed order keeps every caller's objective bit-identical.
    """
    for name, cache in problem.numerical.items():
        value += config.smoothness * curvature_penalty(
            cache.knots, numerical_curves[name]
        )
    value += config.categorical_ridge * float(beta @ beta)
    for name, (trend, seasonal) in splits.items():
        cache = problem.temporal[name]
        value = _add_split_penalty(
            value, cache.series.times.astype(float),
            cache.partition.phase_sets, trend, seasonal,
            config.trend_smoothness, config.seasonal_smoothness,
        )
    return value


INIT_GRID_BINS = 512


class _SampleSmoother:
    """One numerical feature's kernel smoother on a record subsample.

    The subsample is binned onto ``INIT_GRID_BINS`` uniform cells over the
    feature's knot range (binned kernel regression: the cell width is far
    below the subsample bandwidth, so the estimator is unchanged).  The
    populated cells, weighted by their record counts, are the knots of a
    :class:`KernelSmootherPlan` whose window, ``bandwidth``, is the
    subsample's bandwidth rounded up to whole cells.
    """

    def __init__(self, cache, xs, bandwidth_factor):
        bins = INIT_GRID_BINS
        lo = cache.knots[0]
        span = cache.knots[-1] - lo
        width = span / bins if span > 0 else 1.0
        half = max(1, int(np.ceil(
            default_bandwidth(xs, bandwidth_factor) / width
        )))
        codes = np.clip(((xs - lo) / width).astype(np.int64), 0, bins - 1)
        counts = np.bincount(codes, minlength=bins)
        populated = counts > 0
        # cell number among the populated cells, looked up without a sort
        self.cells = (np.cumsum(populated) - 1)[codes]
        self.counts = counts[populated].astype(float)
        self.centres = lo + (np.flatnonzero(populated) + 0.5) * width
        self.bandwidth = half * width
        self.plan = KernelSmootherPlan(
            self.centres, self.bandwidth, self.counts, dtype=np.float64
        )

    def sweep(self, target):
        """Smooth per-record ``target``; returns the record-mean-centred
        cell curve and its values at the records."""
        sums = np.bincount(self.cells, weights=target,
                           minlength=self.counts.size)
        curve = self.plan.smooth(sums / self.counts)
        curve -= (self.counts @ curve) / self.cells.size
        return curve, curve[self.cells]


def _sample_smoothers(problem, config, indices):
    return [
        _SampleSmoother(cache, cache.x[indices], config.bandwidth_factor)
        for cache in problem.numerical.values()
    ]


def pilot_estimates(problem, residual, rng, config=None):
    """Per-feature shape summaries from one sweep on a pilot subsample.

    Draws ``min(pilot_size, n)`` records with ``rng`` (every record, in
    order, when the pilot covers the data), smooths every numerical
    feature against ``residual`` on them, and reports per feature, in
    ``problem.numerical`` order, the residual variance around its pilot
    curve, the largest squared curve value, and the steepest secant from
    a cell centre to the curve one bandwidth on (a neighbouring cell's
    few records would overstate the slope).  Returns the estimates, the
    pilot record indices and the per-feature pilot smoothers.
    """
    config = config or problem.config
    n = problem.n
    pilot_n = min(config.pilot_size, n)
    indices = (
        rng.choice(n, pilot_n, replace=False) if n > pilot_n
        else np.arange(n)
    )
    smoothers = _sample_smoothers(problem, config, indices)
    target = residual[indices]
    pilots = []
    for smoother in smoothers:
        curve, fitted = smoother.sweep(target)
        reach = smoother.bandwidth
        ahead = np.interp(smoother.centres + reach, smoother.centres, curve)
        pilots.append(PilotEstimate(
            variance=float(np.mean((target - fitted) ** 2)),
            sup_squared=float(np.max(curve * curve)),
            max_slope=float(np.max(np.abs(ahead - curve))) / reach,
        ))
    return pilots, indices, smoothers


def estimate_sample_size(pilots, gamma, floor, limit=None):
    """Initialization sample size from the pilot variation bound.

    ``ceil(max_i gamma * (variance_i + sup_squared_i) * max_slope_i)``,
    capped at ``limit`` (the record count) before rounding, so a huge
    bound stays an integer, and floored at ``floor`` (the pilot size) so
    the estimate never shrinks below what was already affordable.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    worst = max(
        (gamma * (p.variance + p.sup_squared) * p.max_slope for p in pilots),
        default=0.0,
    )
    if limit is not None:
        worst = min(worst, limit)
    return int(max(floor, math.ceil(worst)))


def _sampling_initialization(problem, state, config):
    """Initialize every shape curve from one shared subsample.

    A pilot-sized sweep estimates each feature's variation summaries,
    those bound the initialization sample size, and a few simultaneous
    smoothing sweeps on that sample produce the starting curves.  The
    sweeps update all features against the same residual snapshot
    (feature coupling on a uniform subsample is far below the subsample's
    own estimation noise).
    """
    rng = np.random.default_rng(config.seed)
    n = problem.n
    pilots, indices, smoothers = pilot_estimates(
        problem, state.residual, rng, config
    )
    pilot_n = indices.size
    sample_size = estimate_sample_size(
        pilots, config.sampling_gamma, pilot_n, limit=n
    )
    if sample_size > pilot_n:
        indices = rng.choice(n, size=sample_size, replace=False)
        smoothers = _sample_smoothers(problem, config, indices)
    target = state.residual[indices]
    fits = np.zeros((len(smoothers), sample_size))
    curves = [None] * len(smoothers)
    # two refinement sweeps; beyond that the subsample's estimation
    # error, not the iteration, bounds the initialization quality
    for _ in range(2):
        partial = target - fits.sum(axis=0)
        for i, smoother in enumerate(smoothers):
            curves[i], fits[i] = smoother.sweep(partial + fits[i])

    delta = np.zeros(n)
    mean_total = 0.0
    for (name, cache), smoother, curve in zip(
        problem.numerical.items(), smoothers, curves
    ):
        sampled = np.interp(cache.knots, smoother.centres, curve)
        mean = float(cache.counts @ sampled) / n
        sampled = sampled - mean
        fit = sampled[cache.inverse]
        delta += state.numerical_fits[name]
        delta -= fit
        mean_total += mean
        state.numerical_curves[name] = sampled
        state.numerical_fits[name] = fit
    state.intercept += mean_total
    state.residual += delta - mean_total
    return {"sample_size": int(sample_size), "pilot_size": int(pilot_n)}


def tsi_train(dataset, config=None):
    """Fit the additive model by three-stage iteration.

    Returns the trained model with diagnostics (objective history,
    per-stage objectives, cycle count, stage timings, convergence flag).
    Reaching ``max_cycles`` returns a model flagged as non-converged; a
    non-finite objective raises :class:`ConvergenceError`.
    """
    config = config or TrainConfig()
    problem = TrainingProblem(dataset, config)
    return _train(problem, config)


def _train(problem, config):
    state = initial_state(problem)
    timings = {"stage1": 0.0, "stage2": 0.0, "stage3": 0.0}
    sampling_info = None
    if (
        config.sampling
        and problem.numerical
        and problem.n > config.sampling_threshold
    ):
        start = time.perf_counter()
        sampling_info = _sampling_initialization(problem, state, config)
        timings["initialization"] = time.perf_counter() - start

    objective = objective_value(problem, state, config)
    state.objective_history.append(objective)
    stages = (
        ("stage1", stage1_backfit),
        ("stage2", stage2_categorical),
        ("stage3", stage3_temporal),
    )
    for cycle in range(1, config.max_cycles + 1):
        state.cycles = cycle
        for stage_name, stage in stages:
            start = time.perf_counter()
            state = stage(problem, state, config)
            timings[stage_name] += time.perf_counter() - start
            stage_objective = objective_value(problem, state, config)
            if not np.isfinite(stage_objective):
                raise ConvergenceError(
                    "training diverged: objective is not finite"
                )
            state.stage_objectives.append(
                (cycle, stage_name, stage_objective)
            )
        previous, objective = objective, stage_objective
        state.objective_history.append(objective)
        decrease = previous - objective
        if decrease < config.outer_tol * max(abs(previous), 1e-300):
            state.converged = True
            break
    return _build_model(problem, state, config, timings, sampling_info)


def _build_model(problem, state, config, timings, sampling_info):
    shapes = {
        name: ShapeCurve(cache.knots, state.numerical_curves[name])
        for name, cache in problem.numerical.items()
    }
    betas = {
        label: float(state.beta[j])
        for j, label in enumerate(problem.encoding.labels)
    }
    temporals = {}
    for name, cache in problem.temporal.items():
        components = state.temporal_components.get(name)
        times = cache.series.times.astype(float)
        if components is None:
            trend = np.zeros(times.size)
            seasonal = np.zeros(times.size)
        else:
            trend = components.trend
            seasonal = components.seasonal
        phase_curves = tuple(
            ShapeCurve(times[idx], seasonal[idx])
            for idx in cache.partition.phase_sets
        )
        temporals[name] = TemporalCurves(
            tau=cache.rule.tau,
            period=cache.rule.period,
            trend=ShapeCurve(times, trend),
            seasonal_phases=phase_curves,
        )
    diagnostics = {
        "backend": config.backend,
        "cycles": state.cycles,
        "converged": state.converged,
        "objective_history": [float(v) for v in state.objective_history],
        "stage_objectives": [
            [cycle, stage, float(value)]
            for cycle, stage, value in state.stage_objectives
        ],
        "stage1_passes": [int(v) for v in state.stage1_passes],
        "timings": {k: float(v) for k, v in timings.items()},
        "n_records": problem.n,
    }
    if sampling_info:
        diagnostics["sampling"] = sampling_info
    if problem.temporal:
        # one entry per decompose call, features in declaration order
        # within each cycle
        diagnostics["stage3"] = {
            "sweeps": [int(v) for v in state.stage3_sweeps],
            "converged": [bool(v) for v in state.stage3_converged],
        }
    schema = {
        "numerical": list(problem.dataset.numerical),
        "categorical": list(problem.dataset.categorical),
        "temporal": list(problem.dataset.temporal),
    }
    return FxamModel(
        intercept=float(state.intercept),
        shapes=shapes,
        betas=betas,
        temporals=temporals,
        schema=schema,
        diagnostics=diagnostics,
    )
