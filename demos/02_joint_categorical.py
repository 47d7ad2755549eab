"""Joint categorical learning: one solve for every weight.

All categorical features share one pooled weight vector.  This script
assembles the ridge system for a wide categorical design and solves it
two ways: with the accelerated gradient method (training's path above
1,000 pooled labels) and with a Cholesky factor (training's path up to
that limit, where the factor is built once per fit and each cycle pays
only the solve).  Both answers are checked against a dense LU solve.
"""

import time

import numpy as np
import scipy.linalg as sla

from fxam import (
    Dataset,
    build_homogeneous_encoding,
    closed_form_ridge,
    gram_assemble,
    nga_ridge_solve,
)

rng = np.random.default_rng(1)
n = 60_000
q = 8                  # categorical features
cardinality = 40       # distinct values each -> 320 pooled weights

categorical = {}
true_weights = {}
signal = np.zeros(n)
for m in range(q):
    name = f"group_{m}"
    weights = rng.uniform(-2, 2, cardinality)
    codes = rng.integers(0, cardinality, n)
    categorical[name] = np.array(
        [f"v{k}" for k in range(cardinality)]
    )[codes]
    true_weights[name] = weights
    signal += weights[codes]

response = signal + rng.normal(0, 0.5, n)
dataset = Dataset(response=response, categorical=categorical)

encoding = build_homogeneous_encoding(dataset)
print(f"pooled cardinality: {encoding.cardinality}")

system = gram_assemble(encoding, response - response.mean(), ridge=1.0)

t0 = time.perf_counter()
result = nga_ridge_solve(system, tol=1e-10)
accel_seconds = time.perf_counter() - t0

t0 = time.perf_counter()
direct = closed_form_ridge(system)
direct_seconds = time.perf_counter() - t0

t0 = time.perf_counter()
factor = sla.cho_factor(system.gram.toarray(), lower=True)
factor_seconds = time.perf_counter() - t0

t0 = time.perf_counter()
cholesky = sla.cho_solve(factor, system.rhs)
solve_seconds = time.perf_counter() - t0

gap = float(np.max(np.abs(result.beta - direct)))
cholesky_gap = float(np.max(np.abs(cholesky - direct)))
print(f"accelerated solve: {result.iterations} iterations "
      f"({accel_seconds * 1e3:.1f} ms), dense solve "
      f"{direct_seconds * 1e3:.1f} ms")
print(f"Cholesky: factor once {factor_seconds * 1e3:.1f} ms, "
      f"solve per cycle {solve_seconds * 1e3:.2f} ms")
print(f"answer gap vs dense solve: accelerated {gap:.2e}, "
      f"Cholesky {cholesky_gap:.2e}")
print(f"iterations vs cardinality: {result.iterations} << "
      f"{encoding.cardinality}")
