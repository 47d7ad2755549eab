"""Seasonal-trend partial learning on one temporal feature.

The residual target on the compressed time points is split into a trend,
smoothed over all time points, and a seasonal component, smoothed within
each phase set (cycle-subseries smoothing).

The split between the two components is not identified along functions
that are free for both smoothers: constants, and globally linear
functions of time (linear in t is also linear within every phase grid).
The seasonal component is therefore recentred to weighted mean zero and
stripped of its weighted linear drift, both folded into the trend.  Both
smoothers reproduce constants and linears exactly, so this transfer
leaves the fitted sum and both block equations untouched; it makes the
components unique.

On the penalized backend the split is the exact minimizer of the local
objective (weighted residual sum of squares plus both curvature
penalties): :class:`SplitFactor` factors its two block equations jointly
once per fit, and each call is one sparse solve, the projection, and a
guard that keeps the warm start if the solve would raise the objective.
Alternating the two smoothers instead converges very slowly, because a
smooth trend is also smooth within every phase (concurvity; Buja, Hastie
& Tibshirani 1989).

On the kernel backend the smoothers are neither symmetric nor sparse,
so the split is instead the fixed point of the local alternation: smooth
the de-seasonalized target to get the trend, then smooth the de-trended
target within each phase, projecting every sweep.
The projected sweep is a fixed-point map on the seasonal component, and
it is Anderson-accelerated (Walker & Ni 2011): each iterate combines the
last few map outputs so as to cancel their fixed-point residuals in the
weighted least-squares sense, and the history restarts whenever the
residual grows.  The iteration stops when both projected components move
less than the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .smoothers import (
    KernelSmootherPlan,
    _second_difference_bands,
    curvature_penalty,
    default_bandwidth,
    # unused here; kept importable because the benchmark's tracer
    # (bench/tracing.py) patches both names on this module
    penalized_factor,  # noqa: F401
    penalized_apply,  # noqa: F401
)


# How many past sweep-map differences an Anderson step combines.
ANDERSON_DEPTH = 5


@dataclass
class TemporalComponents:
    """Trend and merged seasonal values over the compressed time points.

    The merged seasonal at a point always equals its phase curve's value
    there.
    The seasonal component has weighted mean zero and no weighted linear
    drift in time (both live in the trend).  ``iterations`` counts
    sweep-map evaluations (one per direct penalized solve); ``converged``
    says whether the split was reached, which a direct solve always is.
    """

    times: np.ndarray
    trend: np.ndarray
    seasonal: np.ndarray
    iterations: int = 0
    converged: bool = False
    objective_history: tuple = field(default_factory=tuple)


class SplitFactor:
    """Both penalized block equations, factored once for any target.

    The minimizer of ``sum w (r - trend - seasonal)^2 + lt * trend'KT
    trend + ls * seasonal'KS seasonal`` (KS the per-phase curvature
    penalties summed into one matrix) solves

        [[W + lt KT, W], [W, W + ls KS]] (trend, seasonal) = (W r, W r).

    The unknowns are interleaved in time, (trend_0, seasonal_0, trend_1,
    seasonal_1, ...), so every nonzero sits near the diagonal: the trend
    couples points at most two apart, and a phase couples each point to
    its next two in the same phase, about two periods on.  SuperLU in
    natural order then fills only that envelope; a fixed band would be
    sized by the sparsest phase instead.

    The matrix is singular along (l, -l) with l constant or linear in
    time, where the objective is flat.  Adding the mean weight to the
    diagonal of the first and last unknowns of one block removes that
    null space without dense constraint rows and without moving the
    minimum: the solve returns the minimizer whose trend (or seasonal)
    vanishes at both ends, and the caller's projection then fixes the
    seasonal's mean and drift.

    Without a trend penalty (it is zero, or there are at most two time
    points) the trend passes every target through, and trend = target,
    seasonal = 0 reaches the objective's floor of zero; nothing is
    factored.
    """

    def __init__(self, times, weights, phase_sets, trend_penalty,
                 seasonal_penalty):
        self.weights = weights
        self.lu = None
        n = times.size
        if n <= 2 or trend_penalty == 0.0:
            return
        trend = 2 * np.arange(n)
        diag = np.empty(2 * n)
        d0, d1, d2 = _second_difference_bands(times)
        diag[0::2] = weights + trend_penalty * d0
        diag[1::2] = weights
        # upper triangle; the lower one mirrors it
        rows = [trend, trend[:-1], trend[:-2]]
        cols = [trend + 1, trend[1:], trend[2:]]
        values = [weights, trend_penalty * d1, trend_penalty * d2]
        for idx in phase_sets:
            if idx.size < 3:
                continue
            p0, p1, p2 = _second_difference_bands(times[idx])
            seasonal = 2 * idx + 1
            diag[seasonal] += seasonal_penalty * p0
            rows += [seasonal[:-1], seasonal[:-2]]
            cols += [seasonal[1:], seasonal[2:]]
            values += [seasonal_penalty * p1, seasonal_penalty * p2]
        # pin both ends of the block with the heavier end rows: rounding
        # along the null direction lands on the pinned rows, and is
        # smallest relative to heavy ones
        pinned = [0, -2] if diag[0] + diag[-2] >= diag[1] + diag[-1] \
            else [1, -1]
        diag[pinned] += float(weights.mean())
        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
        values = np.concatenate(values)
        everything = np.arange(2 * n)
        matrix = sp.csc_matrix(
            (np.concatenate([diag, values, values]),
             (np.concatenate([everything, rows, cols]),
              np.concatenate([everything, cols, rows]))),
            shape=(2 * n, 2 * n),
        )
        # imported on first use: scipy.sparse.linalg adds about 2 MB to
        # every process, and only penalized temporal fits need it
        from scipy.sparse.linalg import splu

        self.lu = splu(matrix, permc_spec="NATURAL")

    def solve(self, target):
        """(trend, seasonal) minimizing the local objective for a target."""
        if self.lu is None:
            return target.copy(), np.zeros(target.size)
        solution = self.lu.solve(np.repeat(self.weights * target, 2))
        return solution[0::2].copy(), solution[1::2].copy()


@dataclass(frozen=True)
class TemporalSmoothers:
    """The kernel trend smoother and one kernel smoother per phase set.

    Each is a callable mapping a target on its knots to fitted values;
    an empty phase set, which :func:`decompose` skips, has ``None``.
    They depend only on the time points, their weights, the partition and
    the config, so one set serves every :func:`decompose` call of a fit.
    """

    trend: object
    phases: tuple


def build_smoothers(series, partition, config):
    """Factor the penalized split, or plan the kernel trend and every
    phase smoother, once.

    Reads the fit's ``TrainConfig``: ``backend``, then the two
    smoothness penalties (penalized) or ``bandwidth_factor`` (kernel).
    Returns a :class:`SplitFactor` (penalized backend) or a
    :class:`TemporalSmoothers` (kernel backend).  A singular penalized
    system raises SuperLU's ``RuntimeError``.
    """
    times = series.times.astype(float)
    weights = series.weights.astype(float)
    if config.backend == "penalized":
        return SplitFactor(times, weights, partition.phase_sets,
                           config.trend_smoothness,
                           config.seasonal_smoothness)

    def plan(idx):
        x = times[idx]
        h = default_bandwidth(x, config.bandwidth_factor)
        return KernelSmootherPlan(x, h, weights[idx]).smooth

    return TemporalSmoothers(
        trend=plan(slice(None)),
        phases=tuple(plan(idx) if idx.size else None
                     for idx in partition.phase_sets),
    )


def decompose(series, partition, residual, config, initial=None,
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
    config : TrainConfig
        As for :func:`build_smoothers`; the kernel backend also stops once
        both components move less than ``inner_tol_factor`` times the
        residual target's sd, or after ``max_inner_iterations`` sweeps.
    initial : TemporalComponents, optional
        Warm start; resuming from the previous components keeps the outer
        training objective non-increasing.
    smoothers : SplitFactor or TemporalSmoothers, optional
        Built by :func:`build_smoothers` from the same series, partition
        and config; built here when omitted.

    Returns
    -------
    TemporalComponents
        With ``objective_history`` holding the local penalized objective
        before and after the solve (penalized backend).

    Notes
    -----
    Empty phase sets contribute a zero sub-component, so missing time
    points never abort the decomposition; smoothing interpolates across
    the gaps.
    """
    residual = np.asarray(residual, dtype=float)
    n = series.n_points
    if residual.shape != (n,):
        raise ValueError("residual must align with the compressed points")
    if all(idx.size == 0 for idx in partition.phase_sets):
        raise ValueError("partition has no populated phase sets")

    times = series.times.astype(float)
    weights = series.weights.astype(float)
    centered = times - np.average(times, weights=weights)
    scatter = float(np.sum(weights * centered * centered))

    def project(trend, seasonal):
        """Move the seasonal's weighted mean and linear drift into the
        trend, in place; the fit and both penalties are unchanged."""
        mean = float(np.average(seasonal, weights=weights))
        seasonal -= mean
        trend += mean
        if scatter > 0.0:
            slope = float(np.sum(weights * centered * seasonal)) / scatter
            seasonal -= slope * centered
            trend += slope * centered

    if smoothers is None:
        smoothers = build_smoothers(series, partition, config)

    if initial is not None:
        trend = np.asarray(initial.trend, dtype=float).copy()
        seasonal = np.asarray(initial.seasonal, dtype=float).copy()
    else:
        trend = np.zeros(n)
        seasonal = np.zeros(n)

    if config.backend == "penalized":
        before = _local_objective(series, partition, residual, trend,
                                  seasonal, config)
        new_trend, new_seasonal = smoothers.solve(residual)
        project(new_trend, new_seasonal)
        after = _local_objective(series, partition, residual, new_trend,
                                 new_seasonal, config)
        # the solve is exact, so it can lose to the warm start only by
        # rounding; keeping the warm start then means no call ascends
        if after <= before:
            trend, seasonal = new_trend, new_seasonal
        else:
            after = before
        return TemporalComponents(
            times=series.times.copy(),
            trend=trend,
            seasonal=seasonal,
            iterations=1,
            converged=True,
            objective_history=(before, after),
        )

    # kernel backend: projected sweeps
    sqrt_weights = np.sqrt(weights)

    def sweep(seasonal):
        """One alternation from a seasonal iterate, projected."""
        trend = smoothers.trend(residual - seasonal)
        seasonal = seasonal.copy()
        for idx, fit in zip(partition.phase_sets, smoothers.phases):
            if idx.size:
                seasonal[idx] = fit(residual[idx] - trend[idx])
        project(trend, seasonal)
        return trend, seasonal

    scale = float(np.sqrt(np.average((residual - residual.mean()) ** 2)))
    tol = config.inner_tol_factor * max(scale, 1e-12)

    # Anderson acceleration (type II) on the seasonal iterate: the next
    # iterate combines the last map outputs with the weights that best
    # cancel the matching fixed-point residuals f = g(x) - x
    iterate = seasonal
    f_diffs, g_diffs = [], []
    last_f = last_g = None
    converged = False
    iterations = 0
    while iterations < config.max_inner_iterations:
        iterations += 1
        new_trend, new_seasonal = sweep(iterate)
        f = new_seasonal - iterate
        moved = max(float(np.max(np.abs(new_trend - trend))),
                    float(np.max(np.abs(f))))
        trend, seasonal = new_trend, new_seasonal
        if moved < tol:
            converged = True
            break
        if last_f is not None:
            if (np.linalg.norm(sqrt_weights * f)
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
    )


def _local_objective(series, partition, residual, trend, seasonal, config):
    """Weighted RSS plus both curvature penalties (penalized backend)."""
    misfit = residual - trend - seasonal
    return _add_split_penalty(
        float(np.sum(series.weights.astype(float) * misfit * misfit)),
        series.times.astype(float), partition.phase_sets, trend, seasonal,
        config.trend_smoothness, config.seasonal_smoothness,
    )


def _add_split_penalty(value, times, phase_sets, trend, seasonal,
                       trend_penalty, seasonal_penalty):
    """``value`` plus the trend's and every phase's seasonal curvature
    penalty, added term by term in that order."""
    value += trend_penalty * curvature_penalty(times, trend)
    for idx in phase_sets:
        if idx.size:
            value += seasonal_penalty * curvature_penalty(
                times[idx], seasonal[idx]
            )
    return value
