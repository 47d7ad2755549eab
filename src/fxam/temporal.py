"""Seasonal-trend partial learning on one temporal feature.

A local alternation: smooth the de-seasonalized target over all time
points to get the trend, then smooth the de-trended target within each
phase set (cycle-subseries smoothing) to get the seasonal sub-components,
and repeat until the components stop moving.

The split between the two components is not identified along functions
that are free for both smoothers: constants, and globally linear
functions of time (linear in t is also linear within every phase grid).
Every sweep therefore recentres the seasonal component to weighted mean
zero and strips its weighted linear drift, folding both into the trend.
Both smoothers reproduce constants and linears exactly, so this transfer
leaves the fitted sum and both block equations untouched; it makes the
components unique, and without it a constant drifts between them sweep
after sweep and the iteration never settles.

The projected sweep is a fixed-point map on the seasonal component, and
it is Anderson-accelerated (Walker & Ni 2011): each iterate combines the
last few map outputs so as to cancel their fixed-point residuals in the
weighted least-squares sense.  The iteration stops when both projected
components move less than the tolerance.  On the penalized backend an
accelerated iterate is kept only if the local objective does not rise,
so every accepted sweep descends; on the kernel backend the history
restarts whenever the residual grows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .smoothers import (
    KernelSmootherPlan,
    curvature_penalty,
    default_bandwidth,
    penalized_factor,
    penalized_apply,
)


# How many past sweep-map differences an Anderson step combines.
ANDERSON_DEPTH = 5


@dataclass(frozen=True)
class DecomposeConfig:
    """Knobs for one temporal feature's decomposition."""

    backend: str = "penalized"        # "penalized" | "fast-kernel"
    trend_penalty: float = 1.0
    seasonal_penalty: float = 1.0
    bandwidth_factor: float = 0.5     # kernel backend bandwidth rule
    tol_factor: float = 1e-6          # times sd of the residual target
    # cap on sweep-map evaluations, rejected accelerated steps included;
    # a call that reaches it returns components flagged non-converged
    max_iterations: int = 50
    track_objective: bool = False     # local objective per accepted sweep


@dataclass
class TemporalComponents:
    """Trend and merged seasonal values over the compressed time points.

    The merged seasonal at a point always equals its phase curve's value
    there; ``seasonal_by_phase`` just views it through the partition.
    The seasonal component has weighted mean zero and no weighted linear
    drift in time (both live in the trend).  ``iterations`` counts
    sweep-map evaluations; ``converged`` says whether both components
    settled within the tolerance before the cap.
    """

    times: np.ndarray
    trend: np.ndarray
    seasonal: np.ndarray
    iterations: int = 0
    converged: bool = False
    objective_history: tuple = field(default_factory=tuple)

    def seasonal_by_phase(self, partition):
        return tuple(self.seasonal[idx] for idx in partition.phase_sets)


def _smoother_for(times, weights, penalty, config):
    """Closure fitting targets on fixed knots, per the configured backend."""
    if times.size == 0:
        return lambda target: target
    if config.backend == "penalized":
        if times.size <= 2 or penalty == 0.0:
            return lambda target: target.copy()
        factor = penalized_factor(times, penalty, weights)
        return lambda target: penalized_apply(factor, target, weights)
    if config.backend == "fast-kernel":
        # extended precision, as fast_kernel_smooth certifies it
        h = default_bandwidth(times, config.bandwidth_factor)
        return KernelSmootherPlan(times, h, weights).smooth
    raise ValueError(f"unknown backend '{config.backend}'")


@dataclass(frozen=True)
class TemporalSmoothers:
    """The trend smoother and one smoother per phase set.

    Each is a callable mapping a target on its knots to fitted values.
    They depend only on the time points, their weights, the partition and
    the config, so one set serves every :func:`decompose` call of a fit.
    """

    trend: object
    phases: tuple


def build_smoothers(series, partition, config):
    """Factor or plan the trend and every phase smoother once."""
    times = series.times.astype(float)
    weights = series.weights.astype(float)
    return TemporalSmoothers(
        trend=_smoother_for(times, weights, config.trend_penalty, config),
        phases=tuple(
            _smoother_for(times[idx], weights[idx], config.seasonal_penalty,
                          config)
            for idx in partition.phase_sets
        ),
    )


def decompose(series, partition, residual, config=None, initial=None,
              smoothers=None):
    """Split a residual target into trend plus seasonal components.

    Parameters
    ----------
    series : CompressedSeries
        Supplies the time knots and record multiplicities.
    partition : PhasePartition
        Phase sets over the compressed points.
    residual : ndarray
        Target values aligned with the compressed points.
    config : DecomposeConfig, optional
    initial : TemporalComponents, optional
        Warm start; resuming from the previous components keeps the outer
        training objective non-increasing.
    smoothers : TemporalSmoothers, optional
        Built by :func:`build_smoothers` from the same series, partition
        and config; built here when omitted.

    Returns
    -------
    TemporalComponents
        With ``objective_history`` tracking the local penalized objective
        per accepted sweep (penalized backend only).

    Notes
    -----
    Empty phase sets contribute a zero sub-component, so missing time
    points never abort the decomposition; smoothing interpolates across
    the gaps.
    """
    if config is None:
        config = DecomposeConfig()
    residual = np.asarray(residual, dtype=float)
    n = series.n_points
    if residual.shape != (n,):
        raise ValueError("residual must align with the compressed points")
    if all(idx.size == 0 for idx in partition.phase_sets):
        raise ValueError("partition has no populated phase sets")

    times = series.times.astype(float)
    weights = series.weights.astype(float)
    sqrt_weights = np.sqrt(weights)
    centered = times - np.average(times, weights=weights)
    scatter = float(np.sum(weights * centered * centered))

    if smoothers is None:
        smoothers = build_smoothers(series, partition, config)

    def sweep(seasonal):
        """One alternation from a seasonal iterate, projected: the
        seasonal's weighted mean and linear drift move into the trend,
        which leaves the fit and both penalties unchanged."""
        trend = smoothers.trend(residual - seasonal)
        seasonal = seasonal.copy()
        for idx, fit in zip(partition.phase_sets, smoothers.phases):
            if idx.size:
                seasonal[idx] = fit(residual[idx] - trend[idx])
        mean = float(np.average(seasonal, weights=weights))
        seasonal -= mean
        trend += mean
        if scatter > 0.0:
            slope = float(np.sum(weights * centered * seasonal)) / scatter
            seasonal -= slope * centered
            trend += slope * centered
        return trend, seasonal

    def objective(trend, seasonal):
        return _local_objective(series, partition, residual, trend,
                                seasonal, config)

    if initial is not None:
        trend = np.asarray(initial.trend, dtype=float).copy()
        seasonal = np.asarray(initial.seasonal, dtype=float).copy()
    else:
        trend = np.zeros(n)
        seasonal = np.zeros(n)

    scale = float(np.sqrt(np.average((residual - residual.mean()) ** 2)))
    tol = config.tol_factor * max(scale, 1e-12)

    # the penalized backend accepts an accelerated iterate only if the
    # local objective does not rise, so every accepted state descends
    guarded = config.backend == "penalized"
    track = config.track_objective and guarded
    value = objective(trend, seasonal) if guarded else None
    history = [value] if track else []

    # Anderson acceleration (type II) on the seasonal iterate: the next
    # iterate combines the last map outputs with the weights that best
    # cancel the matching fixed-point residuals f = g(x) - x
    iterate = seasonal
    f_diffs, g_diffs = [], []
    last_f = last_g = None
    converged = False
    iterations = 0
    while iterations < config.max_iterations:
        iterations += 1
        new_trend, new_seasonal = sweep(iterate)
        if guarded:
            new_value = objective(new_trend, new_seasonal)
            if f_diffs and new_value > value:
                # an accelerated iterate that raised the objective:
                # drop the history and take the plain step from the
                # last accepted map output
                f_diffs.clear()
                g_diffs.clear()
                iterate = last_g
                continue
            value = new_value
            if track:
                history.append(value)
        f = new_seasonal - iterate
        moved = max(float(np.max(np.abs(new_trend - trend))),
                    float(np.max(np.abs(f))))
        trend, seasonal = new_trend, new_seasonal
        if moved < tol:
            converged = True
            break
        if last_f is not None:
            if not guarded and (np.linalg.norm(sqrt_weights * f)
                                > np.linalg.norm(sqrt_weights * last_f)):
                # the residual grew: restart the history from here
                f_diffs.clear()
                g_diffs.clear()
            else:
                f_diffs.append(f - last_f)
                g_diffs.append(new_seasonal - last_g)
                if len(f_diffs) > ANDERSON_DEPTH:
                    del f_diffs[0], g_diffs[0]
        last_f, last_g = f, new_seasonal
        if f_diffs:
            gamma = np.linalg.lstsq(
                np.column_stack(f_diffs) * sqrt_weights[:, None],
                sqrt_weights * f, rcond=None,
            )[0]
            iterate = new_seasonal - np.column_stack(g_diffs) @ gamma
        else:
            iterate = new_seasonal

    return TemporalComponents(
        times=series.times.copy(),
        trend=trend,
        seasonal=seasonal,
        iterations=iterations,
        converged=converged,
        objective_history=tuple(history),
    )


def _local_objective(series, partition, residual, trend, seasonal, config):
    """Weighted RSS plus both curvature penalties (penalized backend)."""
    w = series.weights.astype(float)
    times = series.times.astype(float)
    misfit = residual - trend - seasonal
    value = float(np.sum(w * misfit * misfit))
    value += config.trend_penalty * curvature_penalty(times, trend)
    for idx in partition.phase_sets:
        if idx.size:
            value += config.seasonal_penalty * curvature_penalty(
                times[idx], seasonal[idx]
            )
    return value
