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

# below this cardinality a dense Gram is cheaper than sparse bookkeeping
DENSE_GRAM_LIMIT = 64
# largest system solved densely: by the oracle, and by training's Cholesky
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


def gram_assemble(encoding, y_target, ridge, chunk=65536):
    """Build the ridge system from q-hot rows.

    G[j, k] counts records having both value j and value k active (so the
    diagonal of Z'Z holds per-value occurrence counts), plus ``ridge`` on
    the diagonal.  Assembly is O(n q^2) and never materializes a dense
    n-by-c design matrix.
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

    # One bincount over the pair codes left * c + right counts a chunk's
    # co-occurrences.  Its c^2-long count vector is used only while it is
    # no longer than the pair-code array of a full chunk; beyond that,
    # each chunk's pairs go through COO -> CSR instead.
    by_count = c * c <= min(chunk, n) * q * q
    pairs = np.zeros(c * c, np.int64) if by_count else sp.csr_matrix((c, c))
    for start in range(0, n, chunk):
        part = rows[start:start + chunk]
        codes = (part[:, :, None] * c + part[:, None, :]).ravel()
        if by_count:
            pairs += np.bincount(codes, minlength=c * c)
        else:
            left, right = np.divmod(codes, c)
            pairs = pairs + sp.coo_matrix(
                (np.ones(codes.size), (left, right)), shape=(c, c)
            ).tocsr()
    if by_count:
        pairs = pairs.reshape(c, c)

    if c < DENSE_GRAM_LIMIT:
        gram = pairs.astype(float) if by_count else pairs.toarray()
        gram[np.diag_indices(c)] += ridge
    else:
        gram = sp.csr_matrix(pairs) + ridge * sp.identity(c, format="csr")
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
