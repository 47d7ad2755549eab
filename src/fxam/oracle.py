"""Optimality oracles for the penalized backend, at test scale.

With the penalized backend every training stage is an exact block
minimization, so the trainer's fixed point solves the model's normal
equations.  Two dense checks certify that: the per-block stationarity
residuals of a training state, and one direct solve of the whole stacked
system to compare the iterative answer against.  Both are quadratic (or
worse) in the data and refuse inputs above their size bounds; training
never calls them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .data import factorize
from .smoothers import second_difference_matrix, smoother_matrix
from .training import TrainingProblem, _add_penalties

RESIDUAL_SUPPORT_LIMIT = 2000
DIRECT_SOLVE_LIMIT = 5000


def _record_smoother(knots, weights, inverse, penalty):
    """Dense record-space smoother E (W + penalty K)^-1 E' for one block.

    ``smoother_matrix`` is (W + penalty K)^-1 W on the knots; dividing its
    columns by the weights and gathering rows and columns through
    ``inverse`` (record -> knot) moves it to record space.
    """
    knot_space = smoother_matrix(
        "penalized", knots, penalty, weights, max_size=RESIDUAL_SUPPORT_LIMIT
    ) / weights[None, :]
    return knot_space[np.ix_(inverse, inverse)]


def normal_equation_residuals(problem, state, config=None,
                              max_records=RESIDUAL_SUPPORT_LIMIT):
    """Inf-norm violation of each block's stationarity equation.

    For every component j this measures
    ``|| f_j - M_j (y - everything_else) ||_inf`` with the explicit dense
    record-space smoother matrix M_j; all blocks are small exactly when
    training has converged.  Penalized backend and test scale only.
    """
    config = config or problem.config
    if config.backend != "penalized":
        raise ValueError("normal-equation diagnostics need the penalized "
                         "backend")
    if problem.n > max_records:
        raise ValueError(
            f"normal_equation_residuals is test support only; n={problem.n} "
            f"exceeds {max_records}"
        )
    y = problem.y
    total = np.full(problem.n, state.intercept)
    for fit in state.numerical_fits.values():
        total += fit
    total += state.categorical_fit
    for name in problem.temporal:
        total += state.trend_fits[name] + state.seasonal_fits[name]

    residuals = {}

    # intercept block: its "smoother" is the mean
    target = y - (total - state.intercept)
    residuals["intercept"] = abs(state.intercept - float(target.mean()))

    for name, cache in problem.numerical.items():
        matrix = _record_smoother(cache.knots, cache.counts, cache.inverse,
                                  config.smoothness)
        fit = state.numerical_fits[name]
        target = y - (total - fit)
        residuals[f"numerical:{name}"] = float(
            np.max(np.abs(fit - matrix @ target))
        )

    if problem.encoding.cardinality:
        fit = state.categorical_fit
        target = y - (total - fit)
        rhs = problem.categorical_rhs(target)
        # the joint Gram less its intercept row and column
        gram = problem.gram_joint[1:, 1:]
        dense = gram.toarray() if hasattr(gram, "toarray") else gram
        beta_star = np.linalg.solve(dense, rhs)
        residuals["categorical"] = float(
            np.max(np.abs(fit - problem.categorical_expand(beta_star)))
        )

    for name, cache in problem.temporal.items():
        times = cache.series.times.astype(float)
        back = cache.series.back_map
        fit = state.trend_fits[name]
        matrix = _record_smoother(times, cache.weights, back,
                                  config.trend_smoothness)
        target = y - (total - fit)
        residuals[f"trend:{name}"] = float(
            np.max(np.abs(fit - matrix @ target))
        )

        fit = state.seasonal_fits[name]
        target = y - (total - fit)
        applied = np.zeros(problem.n)
        for idx in cache.partition.phase_sets:
            if idx.size == 0:
                continue
            members = np.isin(back, idx)
            sub_inverse = np.searchsorted(idx, back[members])
            matrix = _record_smoother(times[idx], cache.weights[idx],
                                      sub_inverse,
                                      config.seasonal_smoothness)
            applied[members] = matrix @ target[members]
        residuals[f"seasonal:{name}"] = float(np.max(np.abs(fit - applied)))
    return residuals


@dataclass
class DirectSolution:
    """Output of the dense global solve, aligned with TrainState fields."""

    intercept: float
    numerical_curves: dict
    numerical_fits: dict
    beta: np.ndarray
    categorical_fit: np.ndarray
    trend_curves: dict
    trend_fits: dict
    seasonal_curves: dict
    seasonal_fits: dict
    objective: float
    multipliers: np.ndarray


def normal_equation_direct_solve(dataset, config, max_dim=DIRECT_SOLVE_LIMIT):
    """Solve the stacked stationarity system in one dense linear solve.

    Assembles the penalized least-squares problem over compressed
    coordinates (intercept, knot curves, categorical weights, trend and
    seasonal time curves), pins the degenerate constant/linear directions
    with the same mean and drift conventions the iterative trainer uses,
    and solves the resulting KKT system.  The constraints only select a
    member of the optimal family, so the multipliers come back at zero
    and the solution satisfies the unconstrained normal equations.

    Test-scale oracle: refuses stacked dimension above ``max_dim``.
    """
    if config.backend != "penalized":
        raise ValueError("the direct solve needs the penalized backend")
    projected = 1 + sum(
        np.unique(col).size for col in dataset.numerical.values()
    )
    projected += sum(
        factorize(col)[0].size for col in dataset.categorical.values()
    )
    projected += 2 * sum(
        np.unique(col).size for col in dataset.temporal.values()
    )
    if projected > max_dim:
        raise ValueError(
            f"stacked dimension {projected} exceeds the direct-solve bound "
            f"{max_dim}"
        )
    problem = TrainingProblem(dataset, config)
    n = problem.n
    y = problem.y

    blocks = {}  # key -> slice of the stacked coordinates
    position = 0

    def register(key, size):
        nonlocal position
        blocks[key] = slice(position, position + size)
        position += size

    register("intercept", 1)
    for name, cache in problem.numerical.items():
        register(f"numerical:{name}", cache.knots.size)
    c = problem.encoding.cardinality
    if c:
        register("categorical", c)
    for name, cache in problem.temporal.items():
        register(f"trend:{name}", cache.series.n_points)
        register(f"seasonal:{name}", cache.series.n_points)
    dim = position

    design = np.zeros((n, dim))
    rows = np.arange(n)
    design[:, blocks["intercept"]] = 1.0
    for name, cache in problem.numerical.items():
        design[rows, blocks[f"numerical:{name}"].start + cache.inverse] = 1.0
    if c:
        for m in range(problem.encoding.row_indices.shape[1]):
            design[rows, blocks["categorical"].start
                   + problem.encoding.row_indices[:, m]] = 1.0
    for name, cache in problem.temporal.items():
        back = cache.series.back_map
        design[rows, blocks[f"trend:{name}"].start + back] = 1.0
        design[rows, blocks[f"seasonal:{name}"].start + back] = 1.0

    hessian = design.T @ design
    rhs = design.T @ y

    def add_penalty(key, knots, penalty):
        if penalty <= 0 or knots.size < 3:
            return
        d2 = second_difference_matrix(knots)
        hessian[blocks[key], blocks[key]] += penalty * (d2.T @ d2)

    for name, cache in problem.numerical.items():
        add_penalty(f"numerical:{name}", cache.knots, config.smoothness)
    if c:
        sl = blocks["categorical"]
        hessian[sl, sl] += config.categorical_ridge * np.eye(c)
    for name, cache in problem.temporal.items():
        times = cache.series.times.astype(float)
        add_penalty(f"trend:{name}", times, config.trend_smoothness)
        sl_base = blocks[f"seasonal:{name}"].start
        for idx in cache.partition.phase_sets:
            if idx.size < 3:
                continue
            d2 = second_difference_matrix(times[idx])
            block = config.seasonal_smoothness * (d2.T @ d2)
            hessian[np.ix_(sl_base + idx, sl_base + idx)] += block

    # identifiability: record-mean zero per smoothing block, and no
    # weighted linear drift in any seasonal component
    constraints = []
    for name, cache in problem.numerical.items():
        col = np.zeros(dim)
        col[blocks[f"numerical:{name}"]] = cache.counts / n
        constraints.append(col)
    for name, cache in problem.temporal.items():
        for key in (f"trend:{name}", f"seasonal:{name}"):
            col = np.zeros(dim)
            col[blocks[key]] = cache.weights / n
            constraints.append(col)
        times = cache.series.times.astype(float)
        centered = times - np.average(times, weights=cache.weights)
        col = np.zeros(dim)
        col[blocks[f"seasonal:{name}"]] = cache.weights * centered / n
        constraints.append(col)

    n_constraints = len(constraints)
    kkt = np.zeros((dim + n_constraints, dim + n_constraints))
    kkt[:dim, :dim] = hessian
    if n_constraints:
        cmat = np.stack(constraints, axis=1)
        kkt[:dim, dim:] = cmat
        kkt[dim:, :dim] = cmat.T
    full_rhs = np.concatenate([rhs, np.zeros(n_constraints)])
    lu = sla.lu_factor(kkt)
    solution = sla.lu_solve(lu, full_rhs)
    # two rounds of iterative refinement: the curvature penalties can make
    # the system stiff, and the oracle should be the accurate side
    for _ in range(2):
        defect = full_rhs - kkt @ solution
        solution = solution + sla.lu_solve(lu, defect)
    theta = solution[:dim]
    multipliers = solution[dim:]

    intercept = float(theta[blocks["intercept"]][0])
    numerical_curves = {}
    numerical_fits = {}
    for name, cache in problem.numerical.items():
        curve = theta[blocks[f"numerical:{name}"]]
        numerical_curves[name] = curve
        numerical_fits[name] = curve[cache.inverse]
    if c:
        beta = theta[blocks["categorical"]]
        categorical_fit = problem.categorical_expand(beta)
    else:
        beta = np.zeros(0)
        categorical_fit = np.zeros(n)
    trend_curves = {}
    trend_fits = {}
    seasonal_curves = {}
    seasonal_fits = {}
    for name, cache in problem.temporal.items():
        back = cache.series.back_map
        trend_curves[name] = theta[blocks[f"trend:{name}"]]
        trend_fits[name] = trend_curves[name][back]
        seasonal_curves[name] = theta[blocks[f"seasonal:{name}"]]
        seasonal_fits[name] = seasonal_curves[name][back]

    fitted = design @ theta
    objective = _add_penalties(
        float(np.sum((y - fitted) ** 2)), problem, config, numerical_curves,
        beta,
        {name: (trend_curves[name], seasonal_curves[name])
         for name in problem.temporal},
    )

    return DirectSolution(
        intercept=intercept,
        numerical_curves=numerical_curves,
        numerical_fits=numerical_fits,
        beta=beta,
        categorical_fit=categorical_fit,
        trend_curves=trend_curves,
        trend_fits=trend_fits,
        seasonal_curves=seasonal_curves,
        seasonal_fits=seasonal_fits,
        objective=objective,
        multipliers=multipliers,
    )
