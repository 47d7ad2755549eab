"""Seasonal-trend partial learning on one temporal feature.

A local alternation: smooth the de-seasonalized target over all time
points to get the trend, then smooth the de-trended target within each
phase set (cycle-subseries smoothing) to get the seasonal sub-components,
and repeat until the components stop moving.

The split between the two components is not identified along functions
that are free for both smoothers: constants, and globally linear
functions of time (linear in t is also linear within every phase grid).
After the alternation converges, the seasonal component is therefore
recentred to weighted mean zero and stripped of its weighted linear
drift, with both folded into the trend.  Both smoothers reproduce
constants and linears exactly, so this transfer leaves the fitted sum
and both block equations untouched while making the components unique.
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


@dataclass(frozen=True)
class DecomposeConfig:
    """Knobs for one temporal feature's decomposition."""

    backend: str = "penalized"        # "penalized" | "fast-kernel"
    trend_penalty: float = 1.0
    seasonal_penalty: float = 1.0
    bandwidth_factor: float = 0.5     # kernel backend bandwidth rule
    tol_factor: float = 1e-6          # times sd of the residual target
    max_iterations: int = 50
    track_objective: bool = False     # record the local objective per sweep


@dataclass
class TemporalComponents:
    """Trend and merged seasonal values over the compressed time points.

    The merged seasonal at a point always equals its phase curve's value
    there; ``seasonal_by_phase`` just views it through the partition.
    The seasonal component has weighted mean zero and no weighted linear
    drift in time (both live in the trend).
    """

    times: np.ndarray
    trend: np.ndarray
    seasonal: np.ndarray
    iterations: int = 0
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
        per sweep (penalized backend only).

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
    total_weight = weights.sum()

    if smoothers is None:
        smoothers = build_smoothers(series, partition, config)

    if initial is not None:
        trend = np.asarray(initial.trend, dtype=float).copy()
        seasonal = np.asarray(initial.seasonal, dtype=float).copy()
    else:
        trend = np.zeros(n)
        seasonal = np.zeros(n)

    scale = float(np.sqrt(np.average((residual - residual.mean()) ** 2)))
    tol = config.tol_factor * max(scale, 1e-12)

    track = config.track_objective and config.backend == "penalized"
    history = []
    if track:
        history.append(
            _local_objective(series, partition, residual, trend, seasonal,
                             config)
        )

    iterations = 0
    for sweep in range(1, config.max_iterations + 1):
        iterations = sweep
        new_trend = smoothers.trend(residual - seasonal)
        new_seasonal = seasonal.copy()
        for idx, fit in zip(partition.phase_sets, smoothers.phases):
            if idx.size == 0:
                continue
            new_seasonal[idx] = fit(residual[idx] - new_trend[idx])
        delta = max(
            float(np.max(np.abs(new_trend - trend))),
            float(np.max(np.abs(new_seasonal - seasonal))),
        )
        trend, seasonal = new_trend, new_seasonal
        if track:
            history.append(
                _local_objective(series, partition, residual, trend,
                                 seasonal, config)
            )
        if delta < tol:
            break

    # move the seasonal mean and linear drift into the trend; the fit and
    # both penalties are unchanged, so the block equations still hold
    mean = float(np.average(seasonal, weights=weights)) if total_weight else 0.0
    seasonal = seasonal - mean
    trend = trend + mean
    centered = times - np.average(times, weights=weights)
    scatter = float(np.sum(weights * centered * centered))
    if scatter > 0.0:
        slope = float(np.sum(weights * centered * seasonal)) / scatter
        seasonal = seasonal - slope * centered
        trend = trend + slope * centered

    return TemporalComponents(
        times=series.times.copy(),
        trend=trend,
        seasonal=seasonal,
        iterations=iterations,
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
