import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg

import fxam.temporal
import fxam.training
from fxam.data import Dataset, compress_time_points, partition_phases
from fxam.smoothers import (
    KernelSmootherPlan,
    default_bandwidth,
    fast_kernel_smooth,
    naive_kernel_smooth,
    second_difference_matrix,
)
from fxam.model import ShapeCurve, TemporalCurves
from fxam.temporal import DecomposeConfig, build_smoothers, decompose
from fxam.training import TemporalRule, TrainConfig, tsi_train


def make_series(times, values, tau=1, period=4):
    series = compress_time_points(times, values)
    partition = partition_phases(series, tau=tau, period=period)
    return series, partition


class TestDecompose:
    def test_constant_residual(self):
        series, partition = make_series(np.arange(40), np.zeros(40))
        components = decompose(series, partition, np.full(40, 2.5))
        np.testing.assert_allclose(components.trend, 2.5, atol=1e-9)
        np.testing.assert_allclose(components.seasonal, 0.0, atol=1e-9)

    def test_sinusoid_recovered_as_seasonal(self):
        # a sinusoid whose period matches the partition is constant per
        # phase, so cycle-subseries smoothing captures it exactly; with
        # uniform weights over complete periods the trend keeps only the
        # mean
        d = 8
        times = np.repeat(np.arange(200), 2)
        signal = np.sin(2 * np.pi * times / d)
        series, partition = make_series(times, signal, period=d)
        config = DecomposeConfig(
            trend_penalty=500.0, seasonal_penalty=50.0,
            tol_factor=1e-10, max_iterations=2000,
        )
        components = decompose(series, partition, series.values, config)
        truth = np.sin(2 * np.pi * series.times / d)
        corr = np.corrcoef(components.seasonal, truth)[0, 1]
        assert corr >= 0.99
        # the drift-free seasonal convention leaves the sinusoid's small
        # secular regression component (a few percent of the amplitude)
        # in the trend
        assert np.max(np.abs(components.trend - signal.mean())) < 0.1

    def test_linear_ramp_goes_to_trend(self):
        t = np.arange(60)
        ramp = 0.5 * t
        series, partition = make_series(t, ramp)
        components = decompose(series, partition, series.values)
        span = ramp.max() - ramp.min()
        assert np.max(np.abs(components.seasonal)) <= 1e-3 * span
        np.testing.assert_allclose(components.trend, ramp, atol=1e-6)

    def test_seasonal_mean_and_drift_are_zero(self):
        rng = np.random.default_rng(3)
        times = rng.integers(0, 30, 300)
        values = rng.normal(0, 1, 300) + 0.2 * times
        series, partition = make_series(times, values, period=5)
        components = decompose(series, partition, series.values)
        w = series.weights.astype(float)
        assert abs(np.average(components.seasonal, weights=w)) < 1e-10
        centered = series.times - np.average(series.times, weights=w)
        drift = float(np.sum(w * centered * components.seasonal))
        assert abs(drift) / np.sum(w * centered * centered) < 1e-10

    def test_inner_objective_non_increasing(self):
        rng = np.random.default_rng(5)
        times = rng.integers(0, 24, 200)
        values = rng.normal(0, 1, 200) + np.sin(2 * np.pi * times / 4)
        series, partition = make_series(times, values)
        config = DecomposeConfig(
            trend_penalty=20.0, seasonal_penalty=20.0, max_iterations=40,
        )
        components = decompose(series, partition, series.values, config)
        history = np.array(components.objective_history)
        assert history.size >= 2
        assert np.all(np.diff(history) <= 1e-9)

    def test_missing_time_points_tolerated(self):
        # drop a whole phase; decomposition still runs and that phase's
        # sub-component stays zero
        times = np.array([0, 1, 3, 4, 5, 7, 8, 9, 11])
        series, partition = make_series(times, np.sin(times.astype(float)))
        components = decompose(series, partition, series.values)
        empty = [
            phi for phi, idx in enumerate(partition.phase_sets)
            if idx.size == 0
        ]
        assert empty == [2]

    def test_all_empty_partition_rejected(self):
        series, partition = make_series(np.arange(8), np.zeros(8))
        hollow = type(partition)(
            period=partition.period, tau=partition.tau,
            phase_sets=tuple(
                np.array([], dtype=np.int64) for _ in range(partition.period)
            ),
        )
        with pytest.raises(ValueError, match="no populated"):
            decompose(series, hollow, series.values)

    def test_warm_start_reaches_same_components(self):
        rng = np.random.default_rng(11)
        times = rng.integers(0, 16, 150)
        values = rng.normal(0, 1, 150)
        series, partition = make_series(times, values)
        config = DecomposeConfig(
            trend_penalty=300.0, seasonal_penalty=300.0,
            tol_factor=1e-12, max_iterations=5000,
        )
        cold = decompose(series, partition, series.values, config)
        warm = decompose(series, partition, series.values, config,
                         initial=cold)
        np.testing.assert_allclose(warm.trend, cold.trend, atol=1e-9)
        np.testing.assert_allclose(warm.seasonal, cold.seasonal, atol=1e-9)

    def test_kernel_backend_runs(self):
        rng = np.random.default_rng(13)
        times = rng.integers(0, 40, 400)
        values = np.sin(2 * np.pi * times / 4) + rng.normal(0, 0.1, 400)
        series, partition = make_series(times, values)
        config = DecomposeConfig(backend="fast-kernel")
        components = decompose(series, partition, series.values, config)
        truth = np.sin(2 * np.pi * series.times / 4)
        assert np.corrcoef(components.seasonal, truth)[0, 1] > 0.9


BACKENDS = ("penalized", "fast-kernel")


def _seasonal_series(seed, n_times, period):
    rng = np.random.default_rng(seed)
    times = rng.integers(0, n_times, 4 * n_times)
    values = (0.02 * times + np.sin(2 * np.pi * times / period)
              + rng.normal(0, 0.3, times.size))
    return times, values


class TestPrebuiltSmoothers:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_match_one_shot_smoothers(self, backend):
        times, values = _seasonal_series(19, 80, 6)
        series, partition = make_series(times, values, period=6)
        config = DecomposeConfig(backend=backend, trend_penalty=30.0,
                                 seasonal_penalty=10.0)
        smoothers = build_smoothers(series, partition, config)
        knots = series.times.astype(float)
        weights = series.weights.astype(float)
        rng = np.random.default_rng(0)

        if backend == "penalized":
            # one joint factor stands for the trend and every phase; its
            # one-shot counterpart is the dense bordered solve
            for _ in range(2):  # a factor serves any number of targets
                target = rng.normal(0, 1, knots.size)
                split = decompose(series, partition, target, config,
                                  smoothers=smoothers)
                trend, seasonal = bordered_fixed_point(series, partition,
                                                       target, config)
                np.testing.assert_allclose(split.trend, trend,
                                           rtol=0, atol=1e-9)
                np.testing.assert_allclose(split.seasonal, seasonal,
                                           rtol=0, atol=1e-9)
            return

        def one_shot(idx, target):
            x, w = knots[idx], weights[idx]
            h = default_bandwidth(x, config.bandwidth_factor)
            return fast_kernel_smooth(x, target, h, w)

        everything = np.arange(knots.size)
        for _ in range(2):  # a smoother serves any number of targets
            target = rng.normal(0, 1, knots.size)
            np.testing.assert_array_equal(
                smoothers.trend(target), one_shot(everything, target),
            )
            for idx, fit in zip(partition.phase_sets, smoothers.phases):
                np.testing.assert_array_equal(
                    fit(target[idx]), one_shot(idx, target[idx]),
                )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_decompose_bit_identical(self, backend):
        times, values = _seasonal_series(23, 60, 5)
        series, partition = make_series(times, values, period=5)
        config = DecomposeConfig(backend=backend, trend_penalty=50.0,
                                 seasonal_penalty=20.0, max_iterations=15)
        smoothers = build_smoothers(series, partition, config)
        own = decompose(series, partition, series.values, config)
        prebuilt = decompose(series, partition, series.values, config,
                             smoothers=smoothers)
        np.testing.assert_array_equal(prebuilt.trend, own.trend)
        np.testing.assert_array_equal(prebuilt.seasonal, own.seasonal)
        assert prebuilt.iterations == own.iterations
        # and again warm-started, reusing the same smoothers
        own = decompose(series, partition, 0.5 * series.values, config,
                        initial=own)
        prebuilt = decompose(series, partition, 0.5 * series.values, config,
                             initial=prebuilt, smoothers=smoothers)
        np.testing.assert_array_equal(prebuilt.trend, own.trend)
        np.testing.assert_array_equal(prebuilt.seasonal, own.seasonal)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fit_builds_one_smoother_per_phase(self, backend, monkeypatch):
        period = 5
        times, values = _seasonal_series(29, 100, period)
        dataset = Dataset(response=values, temporal={"t": times})
        config = TrainConfig(
            backend=backend, trend_smoothness=50.0, seasonal_smoothness=20.0,
            temporal_rules={"t": TemporalRule(period=period)},
            max_inner_iterations=3,
        )
        builds = []
        decomposes = []
        if backend == "penalized":
            # one joint factor stands for the trend and every phase
            factor = scipy.sparse.linalg.splu
            monkeypatch.setattr(
                scipy.sparse.linalg, "splu",
                lambda *a, **k: builds.append(1) or factor(*a, **k),
            )
            expected = 1
        else:
            init = KernelSmootherPlan.__init__
            monkeypatch.setattr(
                KernelSmootherPlan, "__init__",
                lambda *a, **k: builds.append(1) or init(*a, **k),
            )
            expected = period + 1
        inner = fxam.training.decompose
        monkeypatch.setattr(
            fxam.training, "decompose",
            lambda *a, **k: decomposes.append(1) or inner(*a, **k),
        )
        tsi_train(dataset, config)
        assert len(decomposes) >= 2
        assert len(builds) == expected


HOURS = 17_520  # two years of hourly time points
DAY = 24


def _hourly_records(seed=0):
    """80k records on about 17.3k distinct hours: a slow trend, a daily
    profile and unit noise."""
    rng = np.random.default_rng(seed)
    times = rng.integers(0, HOURS, 80_000)
    hour = np.arange(DAY)
    profile = (1.5 * np.sin(2 * np.pi * hour / DAY)
               + 0.5 * np.cos(4 * np.pi * hour / DAY))
    values = (2.0 * np.sin(2 * np.pi * times / HOURS) + 0.5 * times / HOURS
              + profile[times % DAY] + rng.normal(0, 1, times.size))
    return times, values


@pytest.fixture(scope="module")
def hourly():
    times, values = _hourly_records()
    return make_series(times, values, period=DAY)


KERNEL = DecomposeConfig(backend="fast-kernel")


class TestHourlySplit:
    """The fast-kernel split of a long hourly series reaches its fixed
    point, not merely the sweep cap."""

    def test_default_converges_to_reference(self, hourly, monkeypatch):
        series, partition = hourly
        smoothers = build_smoothers(series, partition, KERNEL)
        fast = decompose(series, partition, series.values, KERNEL,
                         smoothers=smoothers)
        assert fast.converged
        assert fast.iterations <= 20
        # plain projected sweeps, run to a far tighter tolerance
        monkeypatch.setattr(fxam.temporal, "ANDERSON_DEPTH", 0)
        tight = replace(KERNEL, tol_factor=1e-11, max_iterations=5000)
        reference = decompose(series, partition, series.values, tight,
                              smoothers=smoothers)
        assert reference.converged
        np.testing.assert_allclose(fast.trend, reference.trend,
                                   rtol=0, atol=1e-5)
        np.testing.assert_allclose(fast.seasonal, reference.seasonal,
                                   rtol=0, atol=1e-5)

    def test_plans_match_naive(self, hourly):
        series, partition = hourly
        smoothers = build_smoothers(series, partition, KERNEL)
        knots = series.times.astype(float)
        weights = series.weights.astype(float)
        target = series.values
        pieces = [(smoothers.trend, np.arange(knots.size))]
        pieces += list(zip(smoothers.phases, partition.phase_sets))
        for fit, idx in pieces:
            x = knots[idx]
            h = default_bandwidth(x, KERNEL.bandwidth_factor)
            np.testing.assert_allclose(
                fit(target[idx]),
                naive_kernel_smooth(x, target[idx], h, weights[idx]),
                rtol=1e-9, atol=1e-12,
            )

    def test_fit_records_stage3_calls(self):
        times, values = _hourly_records()
        dataset = Dataset(response=values, temporal={"hour": times})
        config = TrainConfig(
            backend="fast-kernel",
            temporal_rules={"hour": TemporalRule(period=DAY)},
        )
        model = tsi_train(dataset, config)
        stage3 = model.diagnostics["stage3"]
        assert len(stage3["sweeps"]) == model.diagnostics["cycles"]
        assert len(stage3["converged"]) == model.diagnostics["cycles"]
        assert all(stage3["converged"])
        assert all(1 <= s <= config.max_inner_iterations
                   for s in stage3["sweeps"])


def bordered_fixed_point(series, partition, residual, config):
    """Both block equations solved directly, with the seasonal's weighted
    mean and linear drift held at zero (dense; small series only)."""
    times = series.times.astype(float)
    w = series.weights.astype(float)
    n = times.size
    d2 = second_difference_matrix(times)
    trend_block = np.diag(w) + config.trend_penalty * d2.T @ d2
    seasonal_block = np.diag(w)
    for idx in partition.phase_sets:
        d2 = second_difference_matrix(times[idx])
        seasonal_block[np.ix_(idx, idx)] += \
            config.seasonal_penalty * d2.T @ d2
    centered = times - np.average(times, weights=w)
    constraints = np.vstack([w, w * centered])
    system = np.block([
        [trend_block, np.diag(w), np.zeros((n, 2))],
        [np.diag(w), seasonal_block, constraints.T],
        [np.zeros((2, n)), constraints, np.zeros((2, 2))],
    ])
    rhs = np.concatenate([w * residual, w * residual, np.zeros(2)])
    solution = np.linalg.solve(system, rhs)
    return solution[:n], solution[n:2 * n]


class TestAcceleratedPenalized:
    def test_matches_direct_fixed_point(self):
        times, values = _seasonal_series(31, 90, 6)
        series, partition = make_series(times, values, period=6)
        config = DecomposeConfig(trend_penalty=30.0, seasonal_penalty=10.0,
                                 tol_factor=1e-10, max_iterations=5000)
        components = decompose(series, partition, series.values, config)
        assert components.converged
        trend, seasonal = bordered_fixed_point(series, partition,
                                               series.values, config)
        # the split contracts slowly here (both smoothers pass smooth
        # functions), so the error sits well above the step tolerance
        np.testing.assert_allclose(components.trend, trend, atol=1e-6)
        np.testing.assert_allclose(components.seasonal, seasonal, atol=1e-6)
        history = np.array(components.objective_history)
        assert np.all(np.diff(history) <= 1e-12 * history[0])

    def test_rejected_steps_count_as_sweeps(self, monkeypatch):
        # an objective that rises on every call rejects the solve: the
        # warm start is kept, and the call still counts as one sweep
        times, values = _seasonal_series(37, 60, 5)
        series, partition = make_series(times, values, period=5)
        config = DecomposeConfig(trend_penalty=30.0, seasonal_penalty=10.0)
        warm = decompose(series, partition, series.values, config)
        rising = iter(range(1_000))
        monkeypatch.setattr(fxam.temporal, "_local_objective",
                            lambda *args: float(next(rising)))
        components = decompose(series, partition, 0.5 * series.values,
                               config, initial=warm)
        assert components.iterations == 1
        assert components.converged
        np.testing.assert_array_equal(components.trend, warm.trend)
        np.testing.assert_array_equal(components.seasonal, warm.seasonal)
        # before and after: the kept warm start's value, twice
        assert components.objective_history == (0.0, 0.0)


def sparse_curvature(x):
    """K = D2'D2 on strictly increasing knots, built sparse from the
    second divided differences (zero below three knots)."""
    n = x.size
    if n < 3:
        return sp.csr_matrix((n, n))
    h0 = x[1:-1] - x[:-2]
    h1 = x[2:] - x[1:-1]
    span = x[2:] - x[:-2]
    rows = np.repeat(np.arange(n - 2), 3)
    cols = (np.arange(n - 2)[:, None] + np.arange(3)).ravel()
    values = np.column_stack(
        [2.0 / (h0 * span), -2.0 / (h0 * h1), 2.0 / (h1 * span)]
    ).ravel()
    d2 = sp.csr_matrix((values, (rows, cols)), shape=(n - 2, n))
    return (d2.T @ d2).tocsr()


def assert_split_optimal(series, partition, residual, config, components,
                         rtol=1e-12):
    """Both block equations hold and the seasonal has weighted mean zero
    and no weighted linear drift.

    Each equation's residual is measured row by row against the sum of
    the absolute values of its terms (|A||x| + |b|, the Oettli-Prager
    scale), so heavily penalized rows do not hide errors in light ones.
    """
    times = series.times.astype(float)
    w = series.weights.astype(float)
    trend, seasonal = components.trend, components.seasonal
    seasonal_penalty = np.zeros(times.size)
    seasonal_scale = np.zeros(times.size)
    for idx in partition.phase_sets:
        curvature = sparse_curvature(times[idx])
        seasonal_penalty[idx] = curvature @ seasonal[idx]
        seasonal_scale[idx] = abs(curvature) @ np.abs(seasonal[idx])
    curvature = sparse_curvature(times)
    misfit = w * (trend + seasonal - residual)
    fit_scale = w * (np.abs(trend) + np.abs(seasonal) + np.abs(residual))
    trend_eq = misfit + config.trend_penalty * (curvature @ trend)
    trend_scale = fit_scale + config.trend_penalty * (
        abs(curvature) @ np.abs(trend)
    )
    seasonal_eq = misfit + config.seasonal_penalty * seasonal_penalty
    seasonal_scale = fit_scale + config.seasonal_penalty * seasonal_scale
    assert np.all(np.abs(trend_eq) <= rtol * trend_scale)
    assert np.all(np.abs(seasonal_eq) <= rtol * seasonal_scale)
    size = max(np.max(np.abs(residual)), 1.0)
    assert abs(np.average(seasonal, weights=w)) <= 1e-10 * size
    centered = times - np.average(times, weights=w)
    scatter = float(np.sum(w * centered * centered))
    if scatter > 0.0:
        drift = float(np.sum(w * centered * seasonal)) / scatter
        assert abs(drift) <= 1e-10 * size


def _daily_series(seed, records=20_000, days=730, period=7):
    """A two-year daily series like the benchmark's: a yearly wave, a
    weekly profile and unit noise, every day observed."""
    rng = np.random.default_rng(seed)
    times = rng.integers(0, days, records)
    profile = np.array([0.6, 0.3, 0.1, 0.0, 0.2, -0.5, -0.7])[:period]
    values = (np.sin(2 * np.pi * times / days) + profile[times % period]
              + rng.normal(0, 1, times.size))
    return make_series(times, values, period=period)


class TestSplitFactor:
    """The penalized split is one exact solve of both block equations."""

    def test_agrees_with_bordered_oracle(self):
        times, values = _seasonal_series(31, 90, 6)
        series, partition = make_series(times, values, period=6)
        config = DecomposeConfig(trend_penalty=30.0, seasonal_penalty=10.0)
        components = decompose(series, partition, series.values, config)
        trend, seasonal = bordered_fixed_point(series, partition,
                                               series.values, config)
        np.testing.assert_allclose(components.trend, trend,
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(components.seasonal, seasonal,
                                   rtol=0, atol=1e-9)

    @pytest.mark.parametrize("penalty", [1e-3, 1.0, 1e4])
    def test_block_equations_hold(self, penalty):
        # at small penalties the split itself is ill-conditioned, so the
        # equations are the check, not a componentwise comparison
        series, partition = _daily_series(41)
        assert series.n_points == 730
        config = DecomposeConfig(trend_penalty=penalty,
                                 seasonal_penalty=penalty)
        components = decompose(series, partition, series.values, config)
        assert_split_optimal(series, partition, series.values, config,
                             components)

    def test_direct_call_reports_one_converged_sweep(self):
        series, partition = _daily_series(43, records=5_000, days=120)
        config = DecomposeConfig()
        components = decompose(series, partition, series.values, config)
        assert components.iterations == 1
        assert components.converged
        # before (the zero start) and after the solve
        w = series.weights.astype(float)
        before, after = components.objective_history
        assert before == pytest.approx(float(np.sum(w * series.values ** 2)))
        assert after < before

    def test_sparse_phase_factors_fast(self):
        # hourly data in which one phase is seen only about 12 times: the
        # phase couples points hundreds of hours apart, which a fixed band
        # would have to cover everywhere
        times, values = _hourly_records(seed=1)
        rng = np.random.default_rng(2)
        keep = ((times % DAY != 5)
                | (rng.random(times.size) < 12 * DAY / times.size))
        series, partition = make_series(times[keep], values[keep],
                                        period=DAY)
        assert 6 <= partition.phase_sets[5].size <= 24
        config = DecomposeConfig()
        start = time.perf_counter()
        factor = build_smoothers(series, partition, config)
        assert time.perf_counter() - start < 2.0
        components = decompose(series, partition, series.values, config,
                               smoothers=factor)
        assert_split_optimal(series, partition, series.values, config,
                             components)

    def test_zero_trend_penalty_passes_target_to_trend(self):
        series, partition = _daily_series(47, records=3_000, days=60)
        config = DecomposeConfig(trend_penalty=0.0, seasonal_penalty=5.0)
        components = decompose(series, partition, series.values, config)
        np.testing.assert_array_equal(components.trend, series.values)
        np.testing.assert_array_equal(components.seasonal, 0.0)
        assert_split_optimal(series, partition, series.values, config,
                             components)

    def test_zero_seasonal_penalty_leaves_a_line_in_the_trend(self):
        # a free seasonal absorbs everything but the weighted
        # least-squares line, which its mean and drift conventions leave
        # to the trend
        series, partition = _daily_series(53, records=3_000, days=60)
        config = DecomposeConfig(trend_penalty=5.0, seasonal_penalty=0.0)
        components = decompose(series, partition, series.values, config)
        assert_split_optimal(series, partition, series.values, config,
                             components)
        times = series.times.astype(float)
        w = series.weights.astype(float)
        line = np.polyval(np.polyfit(times, series.values, 1, w=np.sqrt(w)),
                          times)
        np.testing.assert_allclose(components.trend, line, rtol=0,
                                   atol=1e-9)

    def test_phases_with_fewer_than_three_points(self):
        # phase 1 holds two points, phase 2 one, phase 3 none
        times = np.array([0, 1, 2, 4, 5, 8, 12, 16, 20, 24, 28])
        values = np.sin(times.astype(float)) + 0.1 * times
        series, partition = make_series(times, values, period=4)
        sizes = [idx.size for idx in partition.phase_sets]
        assert sizes == [8, 2, 1, 0]
        config = DecomposeConfig(trend_penalty=3.0, seasonal_penalty=2.0)
        components = decompose(series, partition, series.values, config)
        assert_split_optimal(series, partition, series.values, config,
                             components)

    @pytest.mark.parametrize("times", [[3], [2, 7]])
    def test_series_of_at_most_two_points(self, times):
        times = np.repeat(np.array(times), 3)
        values = np.arange(times.size, dtype=float)
        series, partition = make_series(times, values, period=4)
        config = DecomposeConfig()
        components = decompose(series, partition, series.values, config)
        np.testing.assert_array_equal(components.trend, series.values)
        np.testing.assert_array_equal(components.seasonal, 0.0)
        assert_split_optimal(series, partition, series.values, config,
                             components)

    def test_fit_records_one_converged_solve_per_call(self):
        times, values = _seasonal_series(59, 120, 7)
        dataset = Dataset(response=values, temporal={"t": times})
        config = TrainConfig(
            backend="penalized",
            temporal_rules={"t": TemporalRule(period=7)},
        )
        model = tsi_train(dataset, config)
        stage3 = model.diagnostics["stage3"]
        assert len(stage3["sweeps"]) == model.diagnostics["cycles"]
        assert stage3["sweeps"] == [1] * model.diagnostics["cycles"]
        assert all(stage3["converged"])


def temporal_curves(components, partition):
    """The deployable curves that training builds from the components."""
    times = components.times.astype(float)
    return TemporalCurves(
        tau=partition.tau,
        period=partition.period,
        trend=ShapeCurve(times, components.trend),
        seasonal_phases=tuple(
            ShapeCurve(times[idx], components.seasonal[idx])
            for idx in partition.phase_sets
        ),
    )


class TestEvaluateTemporal:
    """``TemporalCurves.contribution`` on decomposed components."""

    def setup_method(self):
        times = np.repeat(np.arange(0, 40), 2)
        values = 0.1 * times + np.cos(2 * np.pi * times / 4)
        self.series, self.partition = make_series(times, values)
        self.components = decompose(
            self.series, self.partition, self.series.values,
            DecomposeConfig(trend_penalty=200.0, seasonal_penalty=200.0),
        )
        self.curves = temporal_curves(self.components, self.partition)

    def test_observed_point_is_exact(self):
        t = int(self.series.times[5])
        assert self.curves.contribution(t) == pytest.approx(
            self.components.trend[5] + self.components.seasonal[5]
        )

    def test_clamped_beyond_range(self):
        phase = (4000 // 1) % 4
        idx = self.partition.phase_sets[phase]
        assert self.curves.contribution(4000) == pytest.approx(
            self.components.trend[-1] + self.components.seasonal[idx][-1]
        )

    def test_interpolates_within_phase(self):
        # phase 1 of period 4 is observed at times 1 and 9 only; time 5
        # lies halfway between them on both the trend and that phase
        series, partition = make_series(
            np.array([0, 1, 9, 10]), np.zeros(4), period=4
        )
        components = decompose(series, partition, series.values)
        components = replace(
            components,
            trend=np.array([0.0, 1.0, 9.0, 10.0]),
            seasonal=np.array([0.0, 2.0, 4.0, 0.0]),
        )
        curves = temporal_curves(components, partition)
        assert curves.contribution(5) == pytest.approx(5.0 + 3.0)

    def test_non_divisible_time_rejected(self):
        series, partition = make_series(
            np.array([0, 2, 4, 6]), np.zeros(4), tau=2, period=2
        )
        components = decompose(series, partition, series.values)
        curves = temporal_curves(components, partition)
        with pytest.raises(ValueError, match="divisible"):
            curves.contribution(3)

    def test_empty_phase_contributes_zero(self):
        times = np.array([0, 1, 3, 4])
        series, partition = make_series(times, np.ones(4))
        components = decompose(series, partition, series.values)
        curves = temporal_curves(components, partition)
        assert curves.seasonal_phases[2].is_empty
        assert curves.contribution(2) == pytest.approx(
            float(np.interp(2.0, times, components.trend))
        )
