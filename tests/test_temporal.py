from dataclasses import replace

import numpy as np
import pytest

import fxam.temporal
import fxam.training
from fxam.data import Dataset, compress_time_points, partition_phases
from fxam.smoothers import (
    KernelSmootherPlan,
    default_bandwidth,
    fast_kernel_smooth,
    naive_kernel_smooth,
    penalized_smooth,
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
            track_objective=True,
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

        def one_shot(idx, penalty, target):
            x, w = knots[idx], weights[idx]
            if backend == "penalized":
                return penalized_smooth(x, target, penalty, w)
            h = default_bandwidth(x, config.bandwidth_factor)
            return fast_kernel_smooth(x, target, h, w)

        everything = np.arange(knots.size)
        for _ in range(2):  # a smoother serves any number of targets
            target = rng.normal(0, 1, knots.size)
            np.testing.assert_array_equal(
                smoothers.trend(target),
                one_shot(everything, config.trend_penalty, target),
            )
            for idx, fit in zip(partition.phase_sets, smoothers.phases):
                np.testing.assert_array_equal(
                    fit(target[idx]),
                    one_shot(idx, config.seasonal_penalty, target[idx]),
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
            factor = fxam.temporal.penalized_factor
            monkeypatch.setattr(
                fxam.temporal, "penalized_factor",
                lambda *a, **k: builds.append(1) or factor(*a, **k),
            )
        else:
            init = KernelSmootherPlan.__init__
            monkeypatch.setattr(
                KernelSmootherPlan, "__init__",
                lambda *a, **k: builds.append(1) or init(*a, **k),
            )
        inner = fxam.training.decompose
        monkeypatch.setattr(
            fxam.training, "decompose",
            lambda *a, **k: decomposes.append(1) or inner(*a, **k),
        )
        tsi_train(dataset, config)
        assert len(decomposes) >= 2
        assert len(builds) == period + 1


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
                                 tol_factor=1e-10, max_iterations=5000,
                                 track_objective=True)
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
        # an objective that rises on every call rejects every accelerated
        # iterate; each rejection still costs one sweep-map evaluation
        times, values = _seasonal_series(37, 60, 5)
        series, partition = make_series(times, values, period=5)
        config = DecomposeConfig(trend_penalty=30.0, seasonal_penalty=10.0,
                                 tol_factor=1e-14, max_iterations=12,
                                 track_objective=True)
        rising = iter(range(1_000))
        monkeypatch.setattr(fxam.temporal, "_local_objective",
                            lambda *args: float(next(rising)))
        components = decompose(series, partition, series.values, config)
        assert components.iterations == 12
        assert not components.converged
        # the initial state plus the accepted plain sweeps: the first two
        # (no history yet), then every other one
        assert len(components.objective_history) == 1 + 2 + 5


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
