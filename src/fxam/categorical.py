"""Joint ridge learning of all categorical value weights.

All categorical features share one weight vector over the homogeneous
label set.  The ridge system is assembled once from the sparse q-hot
rows.  Training solves it exactly, by a Cholesky factor built once per
fit, while the system has at most ``CLOSED_FORM_LIMIT`` unknowns; above
that it uses Nesterov-accelerated gradient descent, with the step size
taken from the dominant Gram eigenvalue found by power iteration.  A
dense LU solve (``closed_form_ridge``) is kept as the independent test
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# largest system solved densely: by the oracle, and by training's Cholesky;
# gram_assemble returns a dense Gram up to this size
CLOSED_FORM_LIMIT = 1000


class ConvergenceError(RuntimeError):
    """Iterative solve ran out of iterations.

    Carries the last iterate and its residual so callers can inspect or
    resume.
    """

    def __init__(self, message, last_iterate=None, residual=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual


@dataclass
class RidgeSystem:
    """Gram system G = Z'Z + ridge*I with right-hand side b = Z'y."""

    gram: object          # dense ndarray or scipy CSR
    rhs: np.ndarray
    ridge: float

    @property
    def size(self):
        return self.rhs.size

    def matvec(self, v):
        return np.asarray(self.gram @ v).ravel()


@dataclass
class NgaResult:
    beta: np.ndarray
    iterations: int
    residual: float


def _pair_counts(rows, chunk):
    """Co-occurrence counts of each column pair f < g of q-hot rows.

    Yields ``(top, left, counts)`` per pair, where ``counts[i, j]`` is the
    number of records with label ``top + i`` in column f and ``left + j``
    in column g.  ``counts`` is a dense contingency table over the two
    columns' code ranges, or CSR when the table would have more cells
    than ``min(chunk, n)`` and so be mostly empty; the CSR is summed
    chunk by chunk of records.
    """
    n, q = rows.shape
    lo = rows.min(axis=0)
    span = rows.max(axis=0) - lo + 1
    local = np.ascontiguousarray((rows - lo).T)
    for f in range(q):
        for g in range(f + 1, q):
            shape = (int(span[f]), int(span[g]))
            if shape[0] * shape[1] <= min(chunk, n):
                counts = np.bincount(
                    local[f] * shape[1] + local[g],
                    minlength=shape[0] * shape[1],
                ).reshape(shape)
            else:
                counts = sp.csr_matrix(shape)
                for start in range(0, n, chunk):
                    left = local[f, start:start + chunk]
                    right = local[g, start:start + chunk]
                    counts = counts + sp.coo_matrix(
                        (np.ones(left.size), (left, right)), shape=shape
                    ).tocsr()
            yield int(lo[f]), int(lo[g]), counts


def gram_assemble(encoding, y_target, ridge, chunk=65536):
    """Build the ridge system from q-hot rows.

    G[j, k] counts records having both value j and value k active (so the
    diagonal of Z'Z holds per-value occurrence counts), plus ``ridge`` on
    the diagonal.  The diagonal is one bincount of all active values;
    each column pair f < g adds its co-occurrence counts and their
    transpose.  Assembly is O(n q^2) and never materializes a dense
    n-by-c design matrix.  G is dense up to ``CLOSED_FORM_LIMIT`` labels,
    the systems that are solved densely, and CSR above.
    """
    if ridge <= 0:
        raise ValueError("ridge must be positive")
    c = encoding.cardinality
    if c == 0:
        raise ValueError("no categorical features")
    rows = encoding.row_indices
    n, q = rows.shape
    y_target = np.asarray(y_target, dtype=float)
    if y_target.shape != (n,):
        raise ValueError("target length must match the encoded records")

    b = np.bincount(
        rows.ravel(), weights=np.repeat(y_target, q), minlength=c
    )

    # counts are integers, exact in float64 in any order of addition;
    # the ridge is added last, in one rounding
    diagonal = np.bincount(rows.ravel(), minlength=c)
    if c <= CLOSED_FORM_LIMIT:
        gram = np.diag(diagonal.astype(float))
        for top, left, counts in _pair_counts(rows, chunk):
            if sp.issparse(counts):
                counts = counts.tocoo()
                upper = (top + counts.row, left + counts.col)
                np.add.at(gram, upper, counts.data)
                np.add.at(gram, upper[::-1], counts.data)
            else:
                block = (slice(top, top + counts.shape[0]),
                         slice(left, left + counts.shape[1]))
                gram[block] += counts
                gram[block[::-1]] += counts.T
        gram[np.diag_indices(c)] += ridge
    else:
        labels = np.arange(c)
        row, col, data = [labels], [labels], [diagonal]
        for top, left, counts in _pair_counts(rows, chunk):
            counts = sp.coo_matrix(counts)
            row += [top + counts.row, left + counts.col]
            col += [left + counts.col, top + counts.row]
            data += [counts.data, counts.data]
        gram = sp.coo_matrix(
            (np.concatenate(data).astype(float),
             (np.concatenate(row), np.concatenate(col))),
            shape=(c, c),
        ).tocsr() + ridge * sp.identity(c, format="csr")
    return RidgeSystem(gram=gram, rhs=b, ridge=float(ridge))


def power_iteration_max_eig(gram, tol=1e-9, max_iter=1000, seed=0):
    """Dominant eigenvalue of a symmetric matrix by power iteration.

    Iterates multiply-and-normalize from a seeded random start and returns
    the Rayleigh quotient once its relative change drops below ``tol``.
    """
    if sp.issparse(gram):
        nonzero = gram.nnz > 0 and np.any(gram.data != 0)
        c = gram.shape[0]
    else:
        gram = np.asarray(gram, dtype=float)
        nonzero = np.any(gram != 0)
        c = gram.shape[0]
    if not nonzero:
        raise ValueError("power iteration requires a nonzero matrix")

    rng = np.random.default_rng(seed)
    v = rng.standard_normal(c)
    v /= np.linalg.norm(v)
    estimate = 0.0
    for _ in range(max_iter):
        gv = np.asarray(gram @ v).ravel()
        norm = np.linalg.norm(gv)
        if norm == 0.0:
            # start vector sat in the null space; re-seed and continue
            v = rng.standard_normal(c)
            v /= np.linalg.norm(v)
            continue
        v = gv / norm
        new = float(v @ np.asarray(gram @ v).ravel())
        if abs(new - estimate) <= tol * max(abs(new), 1e-300):
            return new
        estimate = new
    return estimate


def nga_ridge_solve(system, tol=1e-8, max_iter=None, beta0=None,
                    lam_max=None):
    """Minimize (1/2) b'Gb - b'rhs by Nesterov-accelerated gradient descent.

    The gradient step size is 1/lambda_max(G), with lambda_max found by
    power iteration (or passed in, when the caller solves against the
    same Gram repeatedly); the momentum follows the standard accelerated
    sequence.  Stops when the gradient residual satisfies
    ``||G beta - rhs||_inf < tol * max(1, ||rhs||_inf)``.

    Returns
    -------
    NgaResult
        Solution vector, iterations used, and final residual norm.

    Raises
    ------
    ConvergenceError
        If the residual threshold is not met within ``max_iter``; the
        exception carries the last iterate.
    """
    if system.ridge <= 0:
        raise ValueError("ridge must be positive for a strongly convex solve")
    c = system.size
    if max_iter is None:
        max_iter = max(1000, 10 * c)
    b = system.rhs
    threshold = tol * max(1.0, float(np.max(np.abs(b))) if c else 1.0)

    beta = np.zeros(c) if beta0 is None else np.asarray(beta0, float).copy()
    residual = np.max(np.abs(system.matvec(beta) - b)) if c else 0.0
    if residual < threshold:
        return NgaResult(beta=beta, iterations=0, residual=float(residual))

    if lam_max is None:
        lam_max = power_iteration_max_eig(system.gram)
    # the Rayleigh estimate lower-bounds lambda_max; nudge it up so the
    # step stays on the stable side of 1/L
    step = 1.0 / (lam_max * (1.0 + 1e-9))

    beta_prev = beta.copy()
    theta = 1.0
    for k in range(1, max_iter + 1):
        theta_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta * theta))
        momentum = (theta - 1.0) / theta_next
        look = beta + momentum * (beta - beta_prev)
        grad = system.matvec(look) - b
        beta_prev = beta
        beta = look - step * grad
        theta = theta_next
        # gradient restart: when the momentum points against the descent
        # direction, drop it; keeps the acceleration from oscillating on
        # ill-conditioned systems
        if float(grad @ (beta - beta_prev)) > 0.0:
            theta = 1.0
        residual = float(np.max(np.abs(system.matvec(beta) - b)))
        if residual < threshold:
            return NgaResult(beta=beta, iterations=k, residual=residual)
    raise ConvergenceError(
        f"accelerated ridge solve did not reach tol={tol} in "
        f"{max_iter} iterations (residual {residual:.3e})",
        last_iterate=beta,
        residual=residual,
    )


def closed_form_ridge(system, max_size=CLOSED_FORM_LIMIT):
    """Direct dense solve of the ridge system (test oracle).

    Cubic in the cardinality, so refuses systems beyond ``max_size``.
    """
    c = system.size
    if c > max_size:
        raise ValueError(
            f"closed_form_ridge is bounded at c={max_size}; got {c}"
        )
    gram = system.gram
    if sp.issparse(gram):
        gram = gram.toarray()
    try:
        return np.linalg.solve(gram, system.rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular ridge system: {exc}") from exc


def ridge_objective(system, beta):
    """Block objective (1/2) beta'G beta - rhs'beta (diagnostic)."""
    return 0.5 * float(beta @ system.matvec(beta)) - float(system.rhs @ beta)
