"""Acceptance gates for the whole package.

Each test prints one pass/fail line (run with ``pytest -s`` to see them
in order).  The suite is sized to finish well inside ten minutes on
commodity hardware.  External baseline libraries are out of scope, so no
timing or accuracy comparison against other model families appears here;
ablations compare this package against its own reduced configurations.
"""

import time

import numpy as np
import pytest

from conftest import make_toy_dataset, tight_toy_config

from fxam.categorical import closed_form_ridge, gram_assemble, nga_ridge_solve
from fxam.evaluation import run_experiment
from fxam.model import predict_batch
from fxam.oracle import normal_equation_direct_solve
from fxam.smoothers import (
    fast_kernel_smooth,
    naive_kernel_smooth,
    smoother_matrix,
)
from fxam.synthetic import SynthConfig, generate
from fxam.training import (
    TemporalRule,
    TrainConfig,
    TrainingProblem,
    tsi_train,
)

MODULE_START = time.perf_counter()
N_TOYS = 20


def report(number, description, passed):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number}] {description}: {status}")
    assert passed, f"criterion {number} failed: {description}"


def toy_component_gaps(dataset, model, direct, config):
    """Inf-norm gaps between trained and directly solved components."""
    problem = TrainingProblem(dataset, config)
    gaps = [abs(model.intercept - direct.intercept)]
    for name, cache in problem.numerical.items():
        fitted = model.shapes[name].values[cache.inverse]
        gaps.append(float(np.max(np.abs(
            fitted - direct.numerical_fits[name]
        ))))
    beta = np.array([model.betas[l] for l in problem.encoding.labels])
    gaps.append(float(np.max(np.abs(beta - direct.beta))))
    for name, cache in problem.temporal.items():
        back = cache.series.back_map
        curves = model.temporals[name]
        gaps.append(float(np.max(np.abs(
            curves.trend.values[back] - direct.trend_fits[name]
        ))))
        seasonal = np.zeros(cache.series.n_points)
        for phi, idx in enumerate(cache.partition.phase_sets):
            seasonal[idx] = curves.seasonal_phases[phi].values
        gaps.append(float(np.max(np.abs(
            seasonal[back] - direct.seasonal_fits[name]
        ))))
    return max(gaps)


@pytest.fixture(scope="module")
def toy_runs():
    """Twenty random toy problems trained tightly, with direct solves."""
    config = tight_toy_config()
    start = time.perf_counter()
    runs = []
    for seed in range(N_TOYS):
        dataset = make_toy_dataset(seed)
        model = tsi_train(dataset, config)
        direct = normal_equation_direct_solve(dataset, config)
        runs.append((dataset, model, direct))
    elapsed = time.perf_counter() - start
    return {"runs": runs, "elapsed": elapsed, "config": config}


def test_criterion_1_global_optimum_oracle(toy_runs):
    config = toy_runs["config"]
    worst_gap = 0.0
    worst_objective = 0.0
    for dataset, model, direct in toy_runs["runs"]:
        worst_gap = max(
            worst_gap, toy_component_gaps(dataset, model, direct, config)
        )
        objective = model.diagnostics["objective_history"][-1]
        worst_objective = max(
            worst_objective, abs(objective - direct.objective)
        )
    elapsed = toy_runs["elapsed"]
    report(
        1,
        f"{N_TOYS} toys: component gap {worst_gap:.2e} < 1e-6, "
        f"objective gap {worst_objective:.2e} < 1e-8, "
        f"runtime {elapsed:.1f}s < 10s",
        worst_gap < 1e-6 and worst_objective < 1e-8 and elapsed < 10.0,
    )


def test_criterion_2_monotone_descent(toy_runs):
    worst_increase = -np.inf
    for _, model, _ in toy_runs["runs"]:
        values = [model.diagnostics["objective_history"][0]]
        values += [v for _, _, v in model.diagnostics["stage_objectives"]]
        worst_increase = max(
            worst_increase, float(np.max(np.diff(np.array(values))))
        )
    report(
        2,
        f"objective never rises across stages "
        f"(max increase {worst_increase:.2e} <= 1e-10)",
        worst_increase <= 1e-10,
    )


def test_criterion_3_smoother_theory_preconditions():
    rng = np.random.default_rng(2024)
    worst_asymmetry = 0.0
    eig_low, eig_high = np.inf, -np.inf
    for _ in range(50):
        n = int(rng.integers(10, 201))
        knots = np.cumsum(rng.uniform(0.5, 2.0, n))
        for lam in (0.01, 1.0, 100.0):
            matrix = smoother_matrix("penalized", knots, lam)
            worst_asymmetry = max(
                worst_asymmetry, float(np.max(np.abs(matrix - matrix.T)))
            )
            eigenvalues = np.linalg.eigvalsh((matrix + matrix.T) / 2)
            eig_low = min(eig_low, float(eigenvalues.min()))
            eig_high = max(eig_high, float(eigenvalues.max()))
    report(
        3,
        f"50 knot sets x 3 penalties: asymmetry {worst_asymmetry:.2e} "
        f"< 1e-10, spectrum [{eig_low:.2e}, {eig_high - 1:.2e}+1] in "
        "[-1e-9, 1+1e-9]",
        worst_asymmetry < 1e-10
        and eig_low > -1e-9 and eig_high < 1 + 1e-9,
    )


def test_criterion_4_fast_smoothing_correct_and_fast():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n = int(np.exp(rng.uniform(np.log(50), np.log(10_000))))
        x = np.sort(rng.uniform(-40, 40, n))
        y = rng.normal(0, 2, n)
        w = rng.uniform(0.5, 3.0, n)
        h = float(rng.uniform(0.05, 30.0))
        naive = naive_kernel_smooth(x, y, h, w)
        fast = fast_kernel_smooth(x, y, h, w)
        scale = np.maximum(np.abs(naive), 1e-9)
        worst = max(worst, float(np.max(np.abs(fast - naive) / scale)))

    n = 100_000
    x = np.sort(rng.uniform(0, 100, n))
    y = rng.normal(0, 1, n)
    h = 5.0
    t0 = time.perf_counter()
    fast = fast_kernel_smooth(x, y, h)
    fast_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    naive = naive_kernel_smooth(x, y, h)
    naive_seconds = time.perf_counter() - t0
    agree = float(np.max(np.abs(fast - naive)
                         / np.maximum(np.abs(naive), 1e-9)))
    speedup = naive_seconds / fast_seconds
    elapsed = time.perf_counter() - start
    report(
        4,
        f"100 random inputs (n <= 10000) agree to {worst:.2e} < 1e-9; "
        f"at n=100000 speedup {speedup:.0f}x >= 10x (agreement there "
        f"{agree:.2e}), block runtime {elapsed:.0f}s < 60s",
        worst < 1e-9 and speedup >= 10.0 and elapsed < 60.0,
    )


def test_criterion_5_accelerated_solver_matches_direct():
    rng = np.random.default_rng(11)
    worst_gap = 0.0
    iteration_margin = np.inf
    for _ in range(50):
        c = int(rng.integers(20, 501))
        n = 4 * c
        q = 3
        sizes = np.diff(np.round(np.linspace(0, c, q + 1)).astype(int))
        offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        rows = np.stack(
            [offsets[m] + rng.integers(0, sizes[m], n) for m in range(q)],
            axis=1,
        )

        class _Enc:
            cardinality = c
            row_indices = rows

        system = gram_assemble(_Enc(), rng.normal(0, 2, n), ridge=1.0)
        result = nga_ridge_solve(system, tol=1e-11)
        direct = closed_form_ridge(system)
        worst_gap = max(
            worst_gap, float(np.max(np.abs(result.beta - direct)))
        )
        iteration_margin = min(iteration_margin, 10 * c - result.iterations)
    report(
        5,
        f"50 systems up to c=500: gap {worst_gap:.2e} < 1e-6, iteration "
        f"margin {iteration_margin} > 0 (under 10c)",
        worst_gap < 1e-6 and iteration_margin > 0,
    )


def _seasonal_record_vector(model, name, times):
    curves = model.temporals[name]
    out = np.zeros(times.size)
    phases = (times // curves.tau) % curves.period
    for phi in range(curves.period):
        mask = phases == phi
        curve = curves.seasonal_phases[phi]
        if not np.any(mask) or curve.is_empty:
            continue
        out[mask] = np.interp(
            times[mask].astype(float), curve.knots, curve.values
        )
    return out


def test_criterion_6_seasonality_recovery():
    config = SynthConfig(
        n_records=20_000, n_features=6, numerical_ratio=4 / 6,
        has_temporal=True, seasonality_ratio=0.05, difficulty="easy",
        seed=42,
    )
    dataset, truth = generate(config)
    train_config = TrainConfig(
        backend="fast-kernel",
        temporal_rules={"time": TemporalRule(period=10, tau=1)},
        sampling=False,
    )
    model = tsi_train(dataset, train_config)
    recovered = _seasonal_record_vector(
        model, "time", dataset.temporal["time"]
    )
    correlation = float(np.corrcoef(recovered, truth.seasonal)[0, 1])

    with_stage = run_experiment(dataset, train_config, k=5, seed=0)
    without_stage = run_experiment(
        dataset, train_config, k=5, seed=0, no_temporal_stage=True
    )
    report(
        6,
        f"seasonal corr {correlation:.3f} >= 0.9; cv rmse with temporal "
        f"stage {with_stage.mean_rmse:.4f} <= without "
        f"{without_stage.mean_rmse:.4f}",
        correlation >= 0.9
        and with_stage.mean_rmse <= without_stage.mean_rmse,
    )


def test_criterion_7_acceleration_ablations():
    from dataclasses import replace

    from fxam.evaluation import _columns_of, _subset, kfold_split, rmse

    config = SynthConfig(
        n_records=50_000, n_features=100, numerical_ratio=1.0,
        has_temporal=False, difficulty="hard", seed=7,
    )
    dataset, _ = generate(config)
    # this desk-scale record count sits below the default activation
    # threshold, and the sample-size bound is calibrated for much larger
    # data; both are config fields, scaled here so sampling actually
    # runs.  All variants get the same fixed two-cycle schedule so the
    # timing comparison sees identical cycle structure (path differences
    # only); two cycles are past convergence on this data.
    full_config = TrainConfig(
        backend="fast-kernel",
        sampling=True,
        sampling_threshold=10_000,
        sampling_gamma=0.12,
        pilot_size=1_000,
        dynamic_ordering=True,
        outer_tol=1e-12,
        max_cycles=2,
        stage_tol_factor=3e-5,
        seed=1,
    )
    variants = {
        "full": full_config,
        "no_sampling": replace(full_config, sampling=False),
        "baseline": replace(full_config, sampling=False,
                            dynamic_ordering=False),
    }
    # benchmark hygiene: per fold one untimed warmup settles the process
    # allocator state, the variants run interleaved so load drift hits
    # them equally, CPU time is measured (not wall), and each variant
    # takes the minimum of three repetitions (contention only adds time)
    folds = kfold_split(dataset.n_records, 5, seed=0)
    all_indices = np.arange(dataset.n_records)
    seconds = {key: [] for key in variants}
    errors = {key: [] for key in variants}
    for fold in folds:
        test_idx = np.sort(fold)
        mask = np.ones(dataset.n_records, dtype=bool)
        mask[test_idx] = False
        train_data = _subset(dataset, all_indices[mask])
        test_columns = _columns_of(dataset, test_idx)
        actual = dataset.response[test_idx]
        tsi_train(train_data, variants["baseline"])  # warmup, untimed
        fold_seconds = {key: np.inf for key in variants}
        for _ in range(3):
            for key, variant in variants.items():
                t0 = time.process_time()
                model = tsi_train(train_data, variant)
                fold_seconds[key] = min(
                    fold_seconds[key], time.process_time() - t0
                )
                errors[key].append(
                    rmse(predict_batch(model, test_columns), actual)
                )
        for key, value in fold_seconds.items():
            seconds[key].append(value)
    mean_rmse = {k: float(np.mean(v)) for k, v in errors.items()}
    mean_time = {k: float(np.mean(v)) for k, v in seconds.items()}
    values = np.array(list(mean_rmse.values()))
    spread = float((values.max() - values.min()) / values.min())
    report(
        7,
        f"rmse spread {spread:.2e} < 1e-3 "
        f"(full {mean_rmse['full']:.4f}, no-sampling "
        f"{mean_rmse['no_sampling']:.4f}, baseline "
        f"{mean_rmse['baseline']:.4f}); time full "
        f"{mean_time['full']:.2f}s <= baseline "
        f"{mean_time['baseline']:.2f}s",
        spread < 1e-3 and mean_time["full"] <= mean_time["baseline"],
    )


def test_criterion_8_generator_fidelity():
    easy = generate(SynthConfig(
        n_records=100_000, n_features=30, numerical_ratio=0.8, seed=3,
    ))[1]
    hard = generate(SynthConfig(
        n_records=100_000, n_features=30, numerical_ratio=0.8,
        difficulty="hard", seed=4,
    ))[1]
    report(
        8,
        f"easy noise fve {easy.noise_fve:.5%} in [0.05%, 0.15%]; hard "
        f"noise fve {hard.noise_fve:.5%} in [0.25%, 0.75%]; interaction "
        f"fve {hard.interaction_fve:.1%} in [60%, 70%]",
        0.0005 <= easy.noise_fve <= 0.0015
        and 0.0025 <= hard.noise_fve <= 0.0075
        and 0.60 <= hard.interaction_fve <= 0.70,
    )


def test_criterion_9_suite_runtime():
    elapsed = time.perf_counter() - MODULE_START
    report(
        9,
        f"acceptance suite ran in {elapsed:.0f}s < 600s via a single "
        "pytest command; external baseline comparisons are out of scope",
        elapsed < 600.0,
    )
