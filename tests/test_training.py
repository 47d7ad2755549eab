import numpy as np
import pytest

from conftest import TINY_GAP_COLUMNS, make_toy_dataset, tight_toy_config

import fxam.training
from fxam.categorical import ConvergenceError, RidgeSystem, closed_form_ridge
from fxam.data import Dataset
from fxam.evaluation import _subset
from fxam.model import predict_batch
from fxam.oracle import (
    expanded_components,
    normal_equation_direct_solve,
    normal_equation_residuals,
)
from fxam.smoothers import (
    default_bandwidth,
    naive_kernel_smooth,
    second_difference_matrix,
    smoother_matrix,
)
from fxam.training import (
    INIT_GRID_BINS,
    PilotEstimate,
    TemporalRule,
    TrainConfig,
    TrainingProblem,
    estimate_sample_size,
    initial_state,
    objective_value,
    order_features,
    pilot_estimates,
    predictive_power,
    stage1_backfit,
    stage2_categorical,
    stage3_temporal,
    tsi_train,
)
from fxam.training import _SampleSmoother


def columns_of(dataset):
    out = {}
    for mapping in (dataset.numerical, dataset.categorical, dataset.temporal):
        out.update(mapping)
    return out


def pilot_problem(pilot_size, **numerical):
    n = len(next(iter(numerical.values())))
    ds = Dataset(response=np.zeros(n), numerical=numerical)
    return TrainingProblem(ds, TrainConfig(pilot_size=pilot_size))


class TestPilotEstimates:
    def test_noiseless_linear(self):
        x = np.random.default_rng(0).permutation(np.linspace(0, 10, 4000))
        residual = 2.0 * (x - x.mean())
        problem = pilot_problem(4000, x=x)
        (pilot,), _, _ = pilot_estimates(problem, residual,
                                         np.random.default_rng(0))
        # on an even design the kernel curve keeps the interior slope and
        # flattens only near the ends, so the steepest secant is the truth
        assert pilot.max_slope == pytest.approx(2.0, rel=1e-2)
        assert pilot.variance < 2e-3 * np.var(residual)

    def test_features_keep_their_own_summaries(self):
        rng = np.random.default_rng(3)
        x0 = rng.permutation(np.linspace(0, 10, 4000))
        x1 = rng.permutation(np.linspace(0, 5, 4000))
        residual = 2.0 * (x0 - x0.mean())
        problem = pilot_problem(4000, x0=x0, x1=x1)
        first, second = pilot_estimates(problem, residual,
                                        np.random.default_rng(0))[0]
        # each feature is smoothed on its own grid
        assert first.max_slope == pytest.approx(2.0, rel=1e-2)
        assert second.variance > 0.9 * np.var(residual)

    @pytest.mark.parametrize("pilot_size, bound", [(1_000, 0.12),
                                                   (10_000, 0.06)])
    def test_slope_of_sparse_pilot_grid(self, pilot_size, bound):
        # a pilot of a few records per grid cell: secants between
        # neighbouring cells follow the noise of each cell mean, while
        # one over a smoothing window stays near the true slope
        for seed in range(3):
            rng = np.random.default_rng(seed)
            x = rng.uniform(0, 10, 50_000)
            problem = pilot_problem(pilot_size, x=x)
            (pilot,), _, _ = pilot_estimates(problem, 2.0 * (x - x.mean()),
                                             np.random.default_rng(seed))
            assert pilot.max_slope == pytest.approx(2.0, rel=bound)

    def test_constant_target(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 10, 100)
        problem = pilot_problem(100, x=x)
        (zero,), _, _ = pilot_estimates(problem, np.zeros(100),
                                        np.random.default_rng(0))
        assert zero == PilotEstimate(variance=0.0, sup_squared=0.0,
                                     max_slope=0.0)
        # curves are centred, so a constant is all residual variance
        (five,), _, _ = pilot_estimates(problem, np.full(100, 5.0),
                                        np.random.default_rng(0))
        assert five.variance == pytest.approx(25.0)
        assert five.sup_squared == pytest.approx(0.0, abs=1e-20)
        assert five.max_slope == pytest.approx(0.0, abs=1e-10)

    def test_large_pilot_is_identity_subsample(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 10, 50)
        residual = np.sin(x)
        problem = pilot_problem(10_000, x=x)
        full, indices, _ = pilot_estimates(problem, residual,
                                           np.random.default_rng(1))
        again, _, _ = pilot_estimates(problem, residual,
                                      np.random.default_rng(99))
        assert full == again
        np.testing.assert_array_equal(indices, np.arange(50))

    def test_rejects_tiny_pilot(self):
        with pytest.raises(ValueError, match="pilot_size"):
            TrainConfig(pilot_size=9)
        assert TrainConfig(pilot_size=10).pilot_size == 10


class TestSampleSmoother:
    def test_sweep_matches_naive_kernel_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 10, 20_000)
        target = np.sin(x) + rng.normal(0, 0.3, x.size)
        cache = pilot_problem(2_000, x=x).numerical["x"]
        indices = rng.choice(x.size, 2_000, replace=False)
        xs, ys = x[indices], target[indices]
        smoother = _SampleSmoother(cache, xs, 0.5)
        curve, fitted = smoother.sweep(ys)

        width = (x.max() - x.min()) / INIT_GRID_BINS
        half = np.ceil(default_bandwidth(xs, 0.5) / width)
        cells = np.minimum(((xs - x.min()) / width).astype(int),
                           INIT_GRID_BINS - 1)
        occupied, inverse, counts = np.unique(
            cells, return_inverse=True, return_counts=True
        )
        # a 2,000-record sample leaves some of the 512 cells empty
        assert occupied.size < INIT_GRID_BINS
        centres = x.min() + (occupied + 0.5) * width
        means = np.bincount(inverse, weights=ys) / counts
        expected = naive_kernel_smooth(centres, means, half * width, counts)
        expected -= counts @ expected / counts.sum()
        np.testing.assert_allclose(smoother.centres, centres, rtol=1e-15)
        np.testing.assert_allclose(curve, expected, rtol=0, atol=1e-9)
        np.testing.assert_array_equal(fitted, curve[inverse])


class TestEstimateSampleSize:
    def test_single_feature_formula(self):
        pilot = PilotEstimate(variance=1.0, sup_squared=4.0, max_slope=2.0)
        assert estimate_sample_size([pilot], gamma=1.0, floor=5) == 10

    def test_max_over_features(self):
        pilots = [
            PilotEstimate(variance=1.0, sup_squared=4.0, max_slope=2.0),
            PilotEstimate(variance=2.0, sup_squared=13.0, max_slope=2.0),
        ]
        assert estimate_sample_size(pilots, gamma=1.0, floor=5) == 30

    def test_gamma_scales_before_floor(self):
        pilot = PilotEstimate(variance=10.0, sup_squared=30.0, max_slope=2.0)
        assert estimate_sample_size([pilot], gamma=0.5, floor=5) == 40
        assert estimate_sample_size([pilot], gamma=1.0, floor=5) == 80

    def test_floor_applies(self):
        pilot = PilotEstimate(variance=0.0, sup_squared=0.0, max_slope=0.0)
        assert estimate_sample_size([pilot], gamma=1.0, floor=123) == 123

    def test_limit_caps_an_overflowing_bound(self):
        pilot = PilotEstimate(variance=1.0, sup_squared=4.0, max_slope=2.0)
        # 1e308 * 10 is infinite; the cap keeps the size an integer
        assert estimate_sample_size([pilot], gamma=1e308, floor=5,
                                    limit=1_000) == 1_000
        assert estimate_sample_size([pilot], gamma=1.0, floor=5,
                                    limit=1_000) == 10


def power_of(x, residual, max_slope, bandwidth):
    """predictive_power on the summaries stage 1 caches and computes."""
    centered = residual - residual.mean()
    x_scatter = float(np.sum((x - x.mean()) ** 2))
    return predictive_power(x_scatter, float(centered @ centered),
                            float(x @ centered), x.size, max_slope,
                            bandwidth)


class TestPredictivePower:
    def test_constant_residual(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, 100)
        power = power_of(x, np.full(100, 3.0), max_slope=1.5, bandwidth=0.4)
        assert power == pytest.approx(-(2 * 1.5 * 0.4) ** 2)

    def test_perfectly_correlated(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, 50)
        residual = 2.0 * x + 1.0
        tss = float(np.sum((residual - residual.mean()) ** 2))
        power = power_of(x, residual, max_slope=0.0, bandwidth=1.0)
        assert power == pytest.approx(2 * tss / 48)

    def test_independent_noise_is_near_bias_term(self):
        rng = np.random.default_rng(2)
        n = 1000
        x = rng.uniform(0, 1, n)
        residual = rng.normal(0, 1, n)
        bias = (2 * 0.5 * 0.2) ** 2
        power = power_of(x, residual, max_slope=0.5, bandwidth=0.2)
        tss = float(np.sum((residual - residual.mean()) ** 2))
        # r^2 of independent vectors is O(1/n)
        assert abs(power + bias) < 2 * tss * (10.0 / n) / (n - 2)

    def test_constant_feature_scores_bias_only(self):
        power = predictive_power(0.0, 4.0, 0.0, 10, max_slope=1.0,
                                 bandwidth=0.5)
        assert power == -1.0


class TestOrderFeatures:
    def test_descending(self):
        assert order_features([1.0, 3.0, 2.0]).tolist() == [1, 2, 0]

    def test_ties_keep_position(self):
        assert order_features([2.0, 2.0, 2.0]).tolist() == [0, 1, 2]

    def test_single(self):
        assert order_features([0.5]).tolist() == [0]


def numerical_only_dataset(seed, n=50, p=2):
    rng = np.random.default_rng(seed)
    numerical = {}
    for i in range(p):
        x = np.cumsum(rng.uniform(0.4, 1.4, n))
        rng.shuffle(x)
        numerical[f"x{i}"] = x
    y = sum(np.sin(col / 6.0) for col in numerical.values())
    y = y + rng.normal(0, 0.05, n)
    return Dataset(response=y, numerical=numerical)


class TestStage1:
    def test_single_feature_reaches_fixed_point_in_one_pass(self):
        ds = numerical_only_dataset(0, p=1)
        config = tight_toy_config(temporal_rules={})
        problem = TrainingProblem(ds, config)
        state = initial_state(problem)
        state = stage1_backfit(problem, state)
        # one more sweep must not move anything
        before = expanded_components(problem, state)["numerical:x0"]
        state = stage1_backfit(problem, state)
        np.testing.assert_allclose(
            expanded_components(problem, state)["numerical:x0"], before,
            atol=1e-12,
        )

    def test_matches_brute_force_fixed_point(self):
        ds = numerical_only_dataset(1, n=50, p=2)
        config = tight_toy_config(temporal_rules={})
        problem = TrainingProblem(ds, config)
        state = stage1_backfit(problem, initial_state(problem))

        # oracle: dense smoother matrices iterated to a tight fixed point
        y = ds.response
        mats = {
            name: smoother_matrix("penalized", cache.knots,
                                  config.smoothness)
            for name, cache in problem.numerical.items()
        }
        expand = {
            name: cache.inverse for name, cache in problem.numerical.items()
        }
        alpha = y.mean()
        fits = {name: np.zeros(50) for name in mats}
        for _ in range(500):
            for name, mat in mats.items():
                others = sum(
                    fits[o] for o in mats if o != name
                )
                target = y - alpha - others
                cache = problem.numerical[name]
                knot_target = cache.knot_means(target)
                curve = mat @ knot_target
                mean = float(cache.counts @ curve) / 50
                fits[name] = (curve - mean)[expand[name]]
                alpha += mean
        got = expanded_components(problem, state)
        for name in mats:
            np.testing.assert_allclose(
                got[f"numerical:{name}"], fits[name], atol=1e-8
            )
        assert state.intercept == pytest.approx(alpha, abs=1e-8)

    def test_dynamic_ordering_changes_path_not_fixed_point(self):
        ds = numerical_only_dataset(2, n=120, p=4)
        paths = {}
        for dynamic in (False, True):
            problem = TrainingProblem(ds, tight_toy_config(
                temporal_rules={}, dynamic_ordering=dynamic,
            ))
            paths[dynamic] = expanded_components(
                problem, stage1_backfit(problem, initial_state(problem))
            )
        plain, dyn = paths[False], paths[True]
        # both paths share the fixed point; the pass cap leaves a gap
        # well below the default stage tolerance
        for name in ds.numerical:
            key = f"numerical:{name}"
            np.testing.assert_allclose(plain[key], dyn[key], atol=1e-5)

    def test_no_numerical_features_is_noop(self):
        ds = Dataset(response=np.arange(5.0),
                     categorical={"z": np.array(list("ababa"))})
        config = tight_toy_config(temporal_rules={})
        problem = TrainingProblem(ds, config)
        state = initial_state(problem)
        residual = state.residual.copy()
        state = stage1_backfit(problem, state)
        np.testing.assert_array_equal(state.residual, residual)

    def test_kernel_smoother_matches_naive_oracle(self):
        # the float64 plan that stage 1 runs, on continuous knots with
        # integer record counts; pointwise relative error is not gated,
        # because it grows wherever the curve crosses zero
        rng = np.random.default_rng(8)
        knots = rng.uniform(0, 10, 40_000)
        x = np.repeat(knots, rng.integers(1, 4, knots.size))
        ds = Dataset(response=np.zeros(x.size), numerical={"x": x})
        cache = TrainingProblem(ds, TrainConfig()).numerical["x"]
        assert cache.knots.size == knots.size
        target = np.sin(cache.knots) + rng.normal(0, 0.3, knots.size)
        expected = naive_kernel_smooth(cache.knots, target, cache.bandwidth,
                                       cache.counts)
        error = np.max(np.abs(cache.smooth(target) - expected))
        assert error <= 1e-10 * np.std(target)

    @pytest.mark.parametrize("column", TINY_GAP_COLUMNS)
    @pytest.mark.parametrize("backend", ["fast-kernel", "penalized"])
    def test_tiny_knot_gaps(self, backend, column):
        # the squared gaps (and squared bandwidth) underflow; the kernel
        # backend fits anyway, the penalized one names the feature, and
        # neither warns
        x = np.array(column)
        y = np.arange(x.size, dtype=float) % 3
        ds = Dataset(response=y, numerical={"c": np.full(x.size, 0.5),
                                            "x": x})
        config = TrainConfig(backend=backend, temporal_rules={})
        if backend == "penalized":
            with pytest.raises(ConvergenceError, match=(
                "numerical feature 'x': the penalized smoother does not "
                "factor"
            )):
                tsi_train(ds, config)
            return
        model = tsi_train(ds, config)
        np.testing.assert_array_equal(model.shapes["x"].knots, np.sort(x))
        assert np.all(np.isfinite(model.shapes["x"].values))
        assert np.all(np.isfinite(predict_batch(model, columns_of(ds))))

    def test_components_have_mean_zero(self):
        ds = numerical_only_dataset(3, n=200, p=3)
        config = tight_toy_config(temporal_rules={})
        problem = TrainingProblem(ds, config)
        state = stage1_backfit(problem, initial_state(problem))
        sd = float(np.std(ds.response))
        for fit in expanded_components(problem, state).values():
            assert abs(fit.mean()) < 1e-10 * sd


class TestStage2:
    def test_no_categoricals_is_noop(self):
        ds = numerical_only_dataset(0, p=1)
        config = tight_toy_config(temporal_rules={})
        problem = TrainingProblem(ds, config)
        state = initial_state(problem)
        before = state.residual.copy()
        state = stage2_categorical(problem, state)
        np.testing.assert_array_equal(state.residual, before)

    def test_zero_partial_residual_gives_zero_weights(self):
        rng = np.random.default_rng(0)
        z = rng.choice(["a", "b"], 40)
        ds = Dataset(response=np.full(40, 7.0), categorical={"z": z})
        config = tight_toy_config(temporal_rules={})
        problem = TrainingProblem(ds, config)
        state = initial_state(problem)  # intercept = 7, residual = 0
        state = stage2_categorical(problem, state)
        np.testing.assert_allclose(state.beta, 0.0, atol=1e-9)
        assert state.intercept == pytest.approx(7.0)

    def test_single_feature_closed_form(self):
        # with the intercept solved jointly, the weights satisfy
        # beta_j = n_j * mean_j(y_Z) / (n_j + ridge) for the partial
        # residual y_Z taken at the exit intercept
        rng = np.random.default_rng(1)
        z = rng.choice(["a", "b", "c"], 60)
        y = rng.normal(0, 1, 60) + np.where(z == "a", 2.0, -1.0)
        ds = Dataset(response=y, categorical={"z": z})
        config = tight_toy_config(temporal_rules={})
        problem = TrainingProblem(ds, config)
        state = stage2_categorical(problem, initial_state(problem))
        y_z = y - state.intercept
        for j, label in enumerate(problem.encoding.labels):
            value = label.split("=")[1]
            group = y_z[z == value]
            expected = group.size * group.mean() / (group.size + 1.0)
            assert state.beta[j] == pytest.approx(expected, abs=1e-9)

    def test_intercept_equation_holds_at_exit(self):
        ds = make_toy_dataset(4)
        config = tight_toy_config()
        problem = TrainingProblem(ds, config)
        state = stage2_categorical(problem, initial_state(problem))
        # mean of (y - all components except intercept) equals intercept
        target = ds.response - state.categorical_fit
        assert state.intercept == pytest.approx(float(target.mean()),
                                                abs=1e-9)


def categoricals_dataset(seed, cardinalities=(3, 5, 8), n=40_000,
                         noise=0.3):
    """Three numerical columns and one categorical per cardinality.

    Returns the dataset and each categorical feature's true weights.
    """
    rng = np.random.default_rng(seed)
    numerical = {f"x{j}": rng.uniform(0, 10, n) for j in range(3)}
    y = (np.sin(numerical["x0"]) + 0.1 * numerical["x1"]
         - 0.005 * numerical["x2"] ** 1.5)
    categorical, weights = {}, {}
    for m, cardinality in enumerate(cardinalities):
        name = "abcdefgh"[m]
        w = rng.uniform(-1, 1, cardinality)
        codes = rng.integers(0, cardinality, n)
        values = np.array([f"{name}{k}" for k in range(cardinality)])
        categorical[name] = values[codes]
        weights[name] = dict(zip(values, w))
        y = y + w[codes]
    y = y + rng.normal(0, noise, n)
    return Dataset(response=y, numerical=numerical,
                   categorical=categorical), weights


def joint_gram(problem):
    """[1 Z]'[1 Z] + diag(0, ridge*I) from a dense design matrix."""
    rows = problem.encoding.row_indices
    design = np.zeros((problem.n, problem.encoding.cardinality + 1))
    design[:, 0] = 1.0
    for column in rows.T:
        design[np.arange(problem.n), column + 1] = 1.0
    gram = design.T @ design
    gram[1:, 1:] += problem.config.categorical_ridge * np.eye(
        problem.encoding.cardinality
    )
    return gram


class TestStage2Exact:
    @pytest.mark.parametrize("seed", [0, 5, 7])
    def test_small_categoricals_fit_converges(self, seed):
        # accelerated gradient stalled near residual 3e-4 on these seeds:
        # only the ridge holds the direction that moves weight between
        # two features, so the joint Gram's condition number is ~1e6
        noise = 0.3
        ds, weights = categoricals_dataset(seed, noise=noise)
        model = tsi_train(ds, TrainConfig(backend="fast-kernel",
                                          sampling_threshold=20_000))
        assert model.converged
        for name, truth in weights.items():
            labels = list(truth)
            fitted = np.array([model.betas[f"{name}={v}"] for v in labels])
            true = np.array([truth[v] for v in labels])
            # weights are identified up to a shift per feature; each
            # label holds >= 5,000 records, so a contrast's standard
            # error is below noise / 50
            error = (fitted - fitted[0]) - (true - true[0])
            assert np.max(np.abs(error)) < 0.25 * noise

    @pytest.mark.parametrize("cardinalities", [(3, 4, 6), (40, 30, 20)])
    def test_joint_normal_equations_hold(self, cardinalities):
        ds, _ = categoricals_dataset(2, cardinalities, n=3000)
        config = TrainConfig(backend="fast-kernel", temporal_rules={})
        problem = TrainingProblem(ds, config)
        state = stage1_backfit(problem, initial_state(problem))
        state = stage2_categorical(problem, state)
        target = state.residual + state.categorical_fit + state.intercept
        rhs = problem.joint_ridge_system(target).rhs
        gram = joint_gram(problem)
        x = np.concatenate([[state.intercept], state.beta])
        residual = np.max(np.abs(gram @ x - rhs))
        assert residual <= 1e-10 * max(1.0, np.max(np.abs(rhs)))
        oracle = closed_form_ridge(
            RidgeSystem(gram=gram, rhs=rhs, ridge=config.categorical_ridge)
        )
        np.testing.assert_allclose(x, oracle, rtol=0, atol=1e-8)

    def test_factor_built_once_per_fit(self, monkeypatch):
        factors, iterative = [], []
        factor = fxam.training.sla.cho_factor
        monkeypatch.setattr(
            fxam.training.sla, "cho_factor",
            lambda *a, **k: factors.append(1) or factor(*a, **k),
        )
        for name in ("nga_ridge_solve", "power_iteration_max_eig"):
            inner = getattr(fxam.training, name)
            monkeypatch.setattr(
                fxam.training, name,
                lambda *a, _inner=inner, **k: (
                    iterative.append(1) or _inner(*a, **k)
                ),
            )
        model = tsi_train(make_toy_dataset(1), tight_toy_config())
        assert model.diagnostics["cycles"] >= 3
        assert len(factors) == 1
        assert not iterative

    def test_iterative_path_agrees(self, monkeypatch):
        ds = make_toy_dataset(2)
        config = tight_toy_config()
        direct = tsi_train(ds, config)
        calls = []
        inner = fxam.training.nga_ridge_solve
        monkeypatch.setattr(
            fxam.training, "nga_ridge_solve",
            lambda *a, **k: calls.append(1) or inner(*a, **k),
        )
        monkeypatch.setattr(fxam.training, "CLOSED_FORM_LIMIT", 2)
        iterative = tsi_train(ds, config)
        assert len(calls) == iterative.diagnostics["cycles"]
        assert iterative.intercept == pytest.approx(direct.intercept,
                                                    abs=1e-6)
        for label, weight in direct.betas.items():
            assert iterative.betas[label] == pytest.approx(weight, abs=1e-6)
        cols = columns_of(ds)
        np.testing.assert_allclose(predict_batch(iterative, cols),
                                   predict_batch(direct, cols),
                                   rtol=0, atol=1e-6)

    def test_factor_failure_is_convergence_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("leading minor not positive definite")

        monkeypatch.setattr(fxam.training.sla, "cho_factor", fail)
        with pytest.raises(ConvergenceError, match="categorical_ridge=0.5"):
            TrainingProblem(make_toy_dataset(0),
                            tight_toy_config(categorical_ridge=0.5))


class TestStage3:
    def test_no_temporal_is_noop(self):
        ds = numerical_only_dataset(0, p=1)
        config = tight_toy_config(temporal_rules={})
        problem = TrainingProblem(ds, config)
        state = initial_state(problem)
        before = state.residual.copy()
        state = stage3_temporal(problem, state)
        np.testing.assert_array_equal(state.residual, before)

    def test_zero_residual_gives_zero_components(self):
        rng = np.random.default_rng(0)
        t = rng.integers(0, 12, 80)
        ds = Dataset(response=np.full(80, 3.0), temporal={"t": t})
        config = tight_toy_config()
        problem = TrainingProblem(ds, config)
        state = stage3_temporal(problem, initial_state(problem))
        fits = expanded_components(problem, state)
        np.testing.assert_allclose(fits["trend:t"], 0.0, atol=1e-9)
        np.testing.assert_allclose(fits["seasonal:t"], 0.0, atol=1e-9)
        assert state.intercept == pytest.approx(3.0)

    def test_recovers_injected_seasonality(self):
        rng = np.random.default_rng(1)
        t = rng.integers(1, 201, 4000)
        amplitude, shift = 1.3, 0.7
        seasonal = amplitude * np.sin(2 * np.pi * t / 10 + shift)
        y = seasonal + rng.normal(0, 0.2, 4000)
        ds = Dataset(response=y, temporal={"time": t})
        config = tight_toy_config(
            temporal_rules={"time": TemporalRule(period=10, tau=1)},
            trend_smoothness=2000.0, seasonal_smoothness=10.0,
        )
        problem = TrainingProblem(ds, config)
        state = stage3_temporal(problem, initial_state(problem))
        fitted = expanded_components(problem, state)["seasonal:time"]
        corr = np.corrcoef(fitted, seasonal)[0, 1]
        assert corr >= 0.9


def sampled_mixed_dataset(seed, n=50_000):
    """Mixed dataset large enough for the sampling initialization, with
    far fewer knots and time points than records."""
    rng = np.random.default_rng(seed)
    x1 = rng.integers(0, 500, n) * 0.02
    x2 = rng.integers(0, 300, n) * 0.05 - 7.0
    z = rng.choice(["a", "b", "c", "d"], n)
    t = rng.integers(0, 400, n)
    y = (
        np.sin(x1) + 0.1 * x2 * x2
        + np.where(z == "a", 0.5, np.where(z == "b", -0.3, 0.1))
        + 0.002 * t + 0.4 * np.sin(2 * np.pi * t / 7)
        + rng.normal(0, 0.3, n)
    )
    return Dataset(
        response=y, numerical={"x1": x1, "x2": x2},
        categorical={"z": z}, temporal={"t": t},
    )


def identity_gap(problem, state):
    """Largest gap in ``residual == y - intercept - every component``."""
    fitted = state.intercept + state.categorical_fit
    for fit in expanded_components(problem, state).values():
        fitted = fitted + fit
    return float(np.max(np.abs(problem.y - fitted - state.residual)))


def record_length_arrays(value, n):
    """The 1-d arrays of length ``n`` held anywhere in ``value``."""
    if isinstance(value, np.ndarray):
        return [value] if value.shape == (n,) else []
    if isinstance(value, dict):
        parts = value.values()
    elif isinstance(value, (list, tuple)):
        parts = value
    elif hasattr(value, "__dict__"):
        parts = vars(value).values()
    else:
        return []
    return [a for part in parts for a in record_length_arrays(part, n)]


class TestResidualBookkeeping:
    STAGES = (stage1_backfit, stage2_categorical, stage3_temporal)

    @pytest.mark.parametrize("backend", ["penalized", "fast-kernel"])
    @pytest.mark.parametrize("sampled", [False, True])
    def test_residual_identity_after_every_stage(self, backend, sampled):
        if sampled:
            ds = sampled_mixed_dataset(0)
            config = tight_toy_config(
                backend=backend, sampling=True, sampling_threshold=10_000,
                temporal_rules={"t": TemporalRule(period=7, tau=1)},
            )
        else:
            ds = make_toy_dataset(0)
            config = tight_toy_config(backend=backend)
        problem = TrainingProblem(ds, config)
        state = initial_state(problem)
        gate = 1e-12 * problem.scale
        if sampled:
            info = fxam.training._sampling_initialization(problem, state)
            assert info["sample_size"] < problem.n
            assert identity_gap(problem, state) <= gate
        for _ in range(3):
            for stage in self.STAGES:
                state = stage(problem, state)
                assert identity_gap(problem, state) <= gate, stage.__name__

    def test_state_holds_two_record_length_arrays(self):
        ds = sampled_mixed_dataset(1)
        config = tight_toy_config(
            temporal_rules={"t": TemporalRule(period=7, tau=1)},
        )
        problem = TrainingProblem(ds, config)
        state = initial_state(problem)
        expected = [state.residual, state.categorical_fit]
        for _ in range(2):
            found = record_length_arrays(state, problem.n)
            assert len(found) == 2
            assert all(any(a is b for b in expected) for a in found)
            for stage in self.STAGES:
                state = stage(problem, state)
            expected = [state.residual, state.categorical_fit]


class TestTsiTrain:
    def test_matches_direct_solve_on_toys(self):
        config = tight_toy_config()
        for seed in (0, 1):
            ds = make_toy_dataset(seed)
            model = tsi_train(ds, config)
            direct = normal_equation_direct_solve(ds, config)
            problem = TrainingProblem(ds, config)
            assert abs(model.intercept - direct.intercept) < 1e-6
            for name, cache in problem.numerical.items():
                got = model.shapes[name].values[cache.inverse]
                assert np.max(np.abs(got - direct.numerical_fits[name])) \
                    < 1e-6
            beta = np.array(
                [model.betas[label] for label in problem.encoding.labels]
            )
            assert np.max(np.abs(beta - direct.beta)) < 1e-6

    def test_noiseless_additive_fit(self):
        rng = np.random.default_rng(5)
        n = 400
        x = np.cumsum(rng.uniform(0.3, 0.9, n))
        rng.shuffle(x)
        z = rng.choice(["a", "b", "c", "d"], n)
        weights = {"a": 1.0, "b": -2.0, "c": 0.5, "d": 3.0}
        y = np.sin(x / 10.0) + np.array([weights[v] for v in z])
        ds = Dataset(response=y, numerical={"x": x}, categorical={"z": z})
        config = tight_toy_config(
            temporal_rules={}, smoothness=1e-6, categorical_ridge=1e-6,
        )
        model = tsi_train(ds, config)
        fit = predict_batch(model, columns_of(ds))
        sd = float(np.std(y))
        assert float(np.sqrt(np.mean((fit - y) ** 2))) < 1e-3 * sd

    def test_constant_response(self):
        ds = Dataset(
            response=np.full(30, 4.0),
            numerical={"x": np.arange(30.0)},
        )
        config = tight_toy_config(temporal_rules={})
        model = tsi_train(ds, config)
        assert model.intercept == pytest.approx(4.0)
        np.testing.assert_allclose(model.shapes["x"].values, 0.0, atol=1e-9)

    def test_monotone_descent_per_stage(self):
        config = tight_toy_config()
        ds = make_toy_dataset(3)
        model = tsi_train(ds, config)
        values = [model.diagnostics["objective_history"][0]]
        values += [v for _, _, v in model.diagnostics["stage_objectives"]]
        assert np.all(np.diff(np.array(values)) <= 1e-10)

    def test_sampling_changes_only_initialization(self):
        rng = np.random.default_rng(9)
        n = 3000
        numerical = {}
        for i in range(3):
            x = np.cumsum(rng.uniform(0.2, 0.8, n))
            rng.shuffle(x)
            numerical[f"x{i}"] = x
        y = sum(np.sin(c / 20.0) for c in numerical.values())
        y = y + rng.normal(0, 0.1, n)
        ds = Dataset(response=y, numerical=numerical)
        base = dict(
            backend="fast-kernel", temporal_rules={}, outer_tol=1e-9,
            max_cycles=60, stage_tol_factor=1e-6,
            pilot_size=500, sampling_threshold=1000, seed=3,
        )
        on = tsi_train(ds, TrainConfig(sampling=True, **base))
        off = tsi_train(ds, TrainConfig(sampling=False, **base))
        cols = columns_of(ds)
        rmse_on = float(np.sqrt(np.mean((predict_batch(on, cols) - y) ** 2)))
        rmse_off = float(np.sqrt(np.mean((predict_batch(off, cols) - y) ** 2)))
        assert "sampling" in on.diagnostics
        assert abs(rmse_on - rmse_off) < 1e-3 * rmse_off

    def test_fit_runs_the_tested_heuristics(self, monkeypatch):
        calls = {"pilot_estimates": 0, "predictive_power": 0}
        for name in calls:
            def spy(*args, _name=name,
                    _original=getattr(fxam.training, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(fxam.training, name, spy)
        ds = numerical_only_dataset(4, n=200, p=3)
        model = tsi_train(ds, TrainConfig(
            sampling=True, dynamic_ordering=True, pilot_size=50,
            sampling_threshold=100,
        ))
        assert "sampling" in model.diagnostics
        assert calls["pilot_estimates"] == 1
        # three features scored on every stage-1 entry
        assert calls["predictive_power"] == 3 * model.diagnostics["cycles"]

    def test_max_cycles_flags_non_convergence(self):
        ds = make_toy_dataset(0)
        config = tight_toy_config(max_cycles=1)
        model = tsi_train(ds, config)
        assert not model.converged

    def test_colliding_float64_times_fail_before_fitting(self):
        # distinct int64 times above 2**53 can round to one float64 knot;
        # problem setup refuses them, before any stage runs
        ds = Dataset(response=np.arange(3.0),
                     temporal={"t": [2 ** 53, 2 ** 53 + 1, 2 ** 53 + 2]})
        config = TrainConfig(temporal_rules={"t": TemporalRule(period=2)})
        with pytest.raises(ValueError, match=(
            "column 't': times 9007199254740992 and 9007199254740993"
        )):
            TrainingProblem(ds, config)

    @pytest.mark.parametrize("backend", ["penalized", "fast-kernel"])
    def test_record_order_does_not_change_the_fit(self, backend):
        # every stage reads per-knot, per-label and per-time-point sums,
        # so shuffling the records moves the fit by rounding only
        config = tight_toy_config(backend=backend)
        for seed in range(5):
            ds = make_toy_dataset(seed)
            order = np.random.default_rng(seed).permutation(ds.n_records)
            model = tsi_train(ds, config)
            shuffled = tsi_train(_subset(ds, order), config)
            assert set(shuffled.betas) == set(model.betas)
            cols = columns_of(ds)
            np.testing.assert_allclose(predict_batch(shuffled, cols),
                                       predict_batch(model, cols),
                                       rtol=0, atol=1e-6)


class TestObjectiveValue:
    def test_all_zero_components(self):
        ds = numerical_only_dataset(0)
        config = tight_toy_config(temporal_rules={})
        problem = TrainingProblem(ds, config)
        state = initial_state(problem)
        state.intercept = 0.0
        state.residual = ds.response.copy()
        assert objective_value(problem, state) == pytest.approx(
            float(ds.response @ ds.response)
        )

    def test_perfect_fit_zero_penalties(self):
        rng = np.random.default_rng(0)
        x = np.sort(rng.uniform(0, 10, 30))
        y = rng.normal(0, 1, 30)
        ds = Dataset(response=y, numerical={"x": x})
        config = tight_toy_config(temporal_rules={}, smoothness=0.0)
        problem = TrainingProblem(ds, config)
        state = initial_state(problem)
        state = stage1_backfit(problem, state)
        assert objective_value(problem, state) == pytest.approx(0.0, abs=1e-18)

    def test_termwise_oracle(self):
        ds = make_toy_dataset(7, n=20)
        config = tight_toy_config()
        problem = TrainingProblem(ds, config)
        state = initial_state(problem)
        for _ in range(3):
            state = stage1_backfit(problem, state)
            state = stage2_categorical(problem, state)
            state = stage3_temporal(problem, state)

        # independent expansion of the quadratic objective, term by term
        expected = float(state.residual @ state.residual)
        for name, cache in problem.numerical.items():
            d2 = second_difference_matrix(cache.knots)
            curve = state.numerical_curves[name]
            expected += config.smoothness * float(curve @ d2.T @ d2 @ curve)
        expected += config.categorical_ridge * float(
            state.beta @ state.beta
        )
        for name, cache in problem.temporal.items():
            comp = state.temporal_components[name]
            times = cache.series.times.astype(float)
            d2 = second_difference_matrix(times)
            expected += config.trend_smoothness * float(
                comp.trend @ d2.T @ d2 @ comp.trend
            )
            for idx in cache.partition.phase_sets:
                if idx.size >= 3:
                    d2 = second_difference_matrix(times[idx])
                    sub = comp.seasonal[idx]
                    expected += config.seasonal_smoothness * float(
                        sub @ d2.T @ d2 @ sub
                    )
        assert objective_value(problem, state) == pytest.approx(expected)


class TestNormalEquations:
    def test_residuals_small_at_convergence(self):
        ds = make_toy_dataset(0)
        config = tight_toy_config()
        problem = TrainingProblem(ds, config)
        state = initial_state(problem)
        for _ in range(60):
            state = stage1_backfit(problem, state)
            state = stage2_categorical(problem, state)
            state = stage3_temporal(problem, state)
        gate = 1e-6 * float(np.std(ds.response))
        residuals = normal_equation_residuals(problem, state)
        assert residuals, "expected one residual per block"
        for name, value in residuals.items():
            assert value < gate, f"block {name}: {value}"

    def test_zero_state_zero_response(self):
        ds = Dataset(response=np.zeros(40), numerical={"x": np.arange(40.0)})
        config = tight_toy_config(temporal_rules={})
        problem = TrainingProblem(ds, config)
        state = initial_state(problem)
        residuals = normal_equation_residuals(problem, state)
        for value in residuals.values():
            assert value == pytest.approx(0.0, abs=1e-15)

    def test_perturbation_is_detected(self):
        ds = make_toy_dataset(1)
        config = tight_toy_config()
        problem = TrainingProblem(ds, config)
        state = initial_state(problem)
        for _ in range(40):
            state = stage1_backfit(problem, state)
            state = stage2_categorical(problem, state)
            state = stage3_temporal(problem, state)
        delta = 0.01
        bump = delta * np.sign(
            # zero-mean-ish probe direction on the knots
            np.sin(np.arange(problem.numerical["x1"].knots.size))
        )
        state.numerical_curves["x1"] = state.numerical_curves["x1"] + bump
        residuals = normal_equation_residuals(problem, state)
        assert residuals["numerical:x1"] >= 0.5 * delta

    def test_direct_solve_multipliers_vanish(self):
        ds = make_toy_dataset(2)
        config = tight_toy_config()
        direct = normal_equation_direct_solve(ds, config)
        assert np.max(np.abs(direct.multipliers)) < 1e-5

    def test_direct_solve_reduces_to_single_smooth(self):
        # one numerical feature, nothing else: the optimum is one
        # penalized smooth of the centered response
        rng = np.random.default_rng(4)
        x = np.cumsum(rng.uniform(0.4, 1.2, 60))
        y = np.sin(x / 5.0) + rng.normal(0, 0.1, 60)
        ds = Dataset(response=y, numerical={"x": x})
        config = tight_toy_config(temporal_rules={})
        direct = normal_equation_direct_solve(ds, config)
        m = smoother_matrix("penalized", x, config.smoothness)
        fit = m @ (y - direct.intercept)
        np.testing.assert_allclose(direct.numerical_fits["x"], fit, atol=1e-8)

    def test_direct_solve_reduces_to_ridge(self):
        from fxam.categorical import closed_form_ridge, gram_assemble
        from fxam.data import build_homogeneous_encoding

        rng = np.random.default_rng(5)
        z = rng.choice(["a", "b", "c"], 80)
        y = rng.normal(0, 1, 80)
        ds = Dataset(response=y, categorical={"z": z})
        config = tight_toy_config(temporal_rules={})
        direct = normal_equation_direct_solve(ds, config)
        encoding = build_homogeneous_encoding(ds)
        system = gram_assemble(
            encoding, y - direct.intercept, config.categorical_ridge
        )
        np.testing.assert_allclose(
            direct.beta, closed_form_ridge(system), atol=1e-8
        )

    def test_direct_objective_not_above_tsi(self):
        ds = make_toy_dataset(3)
        config = tight_toy_config()
        model = tsi_train(ds, config)
        direct = normal_equation_direct_solve(ds, config)
        tsi_objective = model.diagnostics["objective_history"][-1]
        assert direct.objective <= tsi_objective + 1e-8

    def test_dimension_bound(self):
        rng = np.random.default_rng(6)
        x = np.sort(rng.uniform(0, 1, 6000))
        ds = Dataset(response=np.zeros(6000), numerical={"x": x})
        config = tight_toy_config(temporal_rules={})
        with pytest.raises(ValueError, match="exceeds"):
            normal_equation_direct_solve(ds, config)

    def test_residuals_record_bound(self):
        ds = make_toy_dataset(0)
        config = tight_toy_config()
        problem = TrainingProblem(ds, config)
        state = initial_state(problem)
        with pytest.raises(ValueError, match="test support"):
            normal_equation_residuals(problem, state, max_records=100)
