"""One-dimensional scatterplot smoothers.

Two backends share one contract (fit values at the input knots):

* a penalized second-difference smoother, solved exactly through a banded
  Cholesky factorization.  Its smoother matrix is symmetric with spectrum
  in [0, 1], which is what the convergence theory needs, so it doubles as
  the oracle backend for the equation-level tests;
* an Epanechnikov kernel smoother.  The quadratic kernel lets the usual
  O(n^2) Nadaraya-Watson sums collapse into sliding-window cumulative sums
  of {wy, xwy, x^2wy, w, xw, x^2w}, giving a linear-time production path.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cholesky_banded, cho_solve_banded

# Dense smoother matrices are quadratic in memory; they exist only to
# support equation-level tests.
MATRIX_SUPPORT_LIMIT = 500


def epanechnikov(u):
    """Quadratic kernel 3(1 - u^2)/4 on [-1, 1], zero outside."""
    u = np.asarray(u, dtype=float)
    out = 0.75 * (1.0 - u * u)
    return np.where(np.abs(u) <= 1.0, out, 0.0)


def default_bandwidth(x, factor=0.5):
    """Bandwidth rule ``factor * range(x) * n^(-1/5)``.

    Degenerate inputs (constant x) fall back to 1.0 so downstream windows
    stay nonempty.
    """
    x = np.asarray(x, dtype=float)
    span = float(x.max() - x.min()) if x.size else 0.0
    if span <= 0.0:
        return 1.0
    return factor * span * x.size ** (-0.2)


def _check_inputs(x, y, weights):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size == 0:
        raise ValueError("empty input")
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d and equally long")
    if weights is None:
        w = np.ones_like(x)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != x.shape:
            raise ValueError("weights must match x in length")
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
    return x, y, w


def naive_kernel_smooth(x, y, bandwidth, weights=None):
    """Direct Nadaraya-Watson fit at every input point.

    Every kernel weight is evaluated explicitly, point by point, with no
    reuse between evaluation points; terms outside the kernel support are
    exactly zero and skipped.  Quadratic cost whenever the bandwidth
    spans a fixed fraction of the data.  This is the reference oracle for
    :func:`fast_kernel_smooth`.  The denominator is always positive
    because each point sits in its own window with kernel weight 3/4.
    """
    x, y, w = _check_inputs(x, y, weights)
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    if np.any(np.diff(x) < 0):
        raise ValueError("x must be sorted ascending")
    n = x.size
    out = np.empty(n)
    wy = w * y
    scale = -0.75 / (bandwidth * bandwidth)
    lo = np.searchsorted(x, x - bandwidth, side="left")
    hi = np.searchsorted(x, x + bandwidth, side="right")
    chunk = 256
    for start in range(0, n, chunk):
        stop = min(n, start + chunk)
        a, b = int(lo[start]), int(hi[stop - 1])
        k = np.subtract(x[start:stop, None], x[None, a:b])
        np.multiply(k, k, out=k)
        np.multiply(k, scale, out=k)
        k += 0.75
        np.maximum(k, 0.0, out=k)
        out[start:stop] = (k @ wy[a:b]) / (k @ w[a:b])
    return out


class KernelSmootherPlan:
    """Reusable sliding-window structures for fixed knots and bandwidth.

    The denominator of the Nadaraya-Watson ratio depends only on the
    knots, weights, and bandwidth, so its window sums (and the window
    bounds and polynomial coefficients) are precomputed once; each
    :meth:`smooth` call builds only the three target-side running sums.

    ``dtype`` sets the accumulator precision.  float64, the default, is
    what every training path uses: the sums run on centred knots, and the
    expansion's cancellation amplifies roundoff by about (span/h)^2,
    which under the default bandwidth rule (h proportional to span *
    n^(-1/5)) grows only like n^0.4, orders of magnitude below every
    training tolerance.  :func:`fast_kernel_smooth` alone passes
    ``np.longdouble``, because it promises 1e-9 agreement with
    :func:`naive_kernel_smooth` at any bandwidth the caller picks.
    """

    def __init__(self, x, bandwidth, weights=None, dtype=np.float64):
        x, _, w = _check_inputs(x, np.zeros_like(np.asarray(x, float)),
                                weights)
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if np.any(np.diff(x) < 0):
            raise ValueError("x must be sorted ascending")
        h = float(bandwidth)
        self.n = x.size
        xc = (x - x.mean()).astype(dtype)
        self.xc = xc
        self.xc_sq = xc * xc
        self.wl = w.astype(dtype)
        self.lo = np.searchsorted(x, x - h, side="left")
        self.hi = np.searchsorted(x, x + h, side="right")
        self.coef_a = 1.0 - self.xc_sq / (h * h)
        self.coef_b = 2.0 * xc / (h * h)
        self.coef_c = dtype(1.0) / (h * h)
        self.dtype = dtype
        den_terms = (self.wl, xc * self.wl, self.xc_sq * self.wl)
        s_w, s_xw, s_xxw = (self._window_sums(t) for t in den_terms)
        self.den = self.coef_a * s_w + self.coef_b * s_xw \
            - self.coef_c * s_xxw
        self.updates_per_call = 3 * self.n

    def _window_sums(self, term):
        prefix = np.empty(term.size + 1, dtype=self.dtype)
        prefix[0] = 0.0
        np.cumsum(term, out=prefix[1:])
        return prefix[self.hi] - prefix[self.lo]

    def smooth(self, y):
        wy = self.wl * np.asarray(y)
        s_wy = self._window_sums(wy)
        s_xwy = self._window_sums(self.xc * wy)
        s_xxwy = self._window_sums(self.xc_sq * wy)
        num = (
            self.coef_a * s_wy + self.coef_b * s_xwy
            - self.coef_c * s_xxwy
        )
        return (num / self.den).astype(float)


def fast_kernel_smooth(x, y, bandwidth, weights=None,
                       return_update_count=False):
    """Linear-time Epanechnikov smoother via sliding cumulative sums.

    Because the kernel is a degree-2 polynomial in x, the windowed sums
    needed at each evaluation point are combinations of six running sums
    ({wy, xwy, x^2wy, w, xw, x^2w} over the window).  The sums are
    accumulated in extended precision on centered x: the polynomial
    expansion cancels like (span/h)^2, and 80-bit accumulation keeps the
    result within 1e-9 of :func:`naive_kernel_smooth` down to bandwidths
    of about span/1,600, where float64 sums drift to about 1e-6.

    Parameters
    ----------
    x : ndarray
        Sorted evaluation points (ties allowed).
    y, weights : ndarray
        Values and positive weights per point.
    bandwidth : float
        Kernel half-window h > 0.
    return_update_count : bool
        When True, also return the number of additions performed while
        building the running sums (a measured linearity witness).
    """
    x, y, w = _check_inputs(x, y, weights)
    plan = KernelSmootherPlan(x, bandwidth, w, dtype=np.longdouble)
    fit = plan.smooth(y)
    if return_update_count:
        # three target-side sums per call plus the three precomputed
        # denominator-side sums
        return fit, plan.updates_per_call + 3 * plan.n
    return fit


def second_difference_matrix(x):
    """Dense second-divided-difference operator D2, shape (n-2, n).

    Row i evaluates f'' at the middle of (x[i], x[i+1], x[i+2]) exactly for
    quadratics; D2' D2 is the curvature penalty K.  Test and oracle
    support; the solvers use the banded form.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    d2 = np.zeros((max(n - 2, 0), n))
    if n < 3:
        return d2
    h0 = x[1:-1] - x[:-2]
    h1 = x[2:] - x[1:-1]
    span = x[2:] - x[:-2]
    rows = np.arange(n - 2)
    d2[rows, rows] = 2.0 / (h0 * span)
    d2[rows, rows + 1] = -2.0 / (h0 * h1)
    d2[rows, rows + 2] = 2.0 / (h1 * span)
    return d2


def curvature_penalty(x, f):
    """Quadratic form f' K f with K the squared second-difference operator."""
    x = np.asarray(x, dtype=float)
    f = np.asarray(f, dtype=float)
    if x.size < 3:
        return 0.0
    h0 = x[1:-1] - x[:-2]
    h1 = x[2:] - x[1:-1]
    span = x[2:] - x[:-2]
    second = (
        2.0 * f[:-2] / (h0 * span)
        - 2.0 * f[1:-1] / (h0 * h1)
        + 2.0 * f[2:] / (h1 * span)
    )
    return float(np.sum(second * second))


def _second_difference_bands(x):
    """Pentadiagonal bands of K = D2' D2 on strictly increasing knots.

    Row i of D2 is the second divided difference over (x[i], x[i+1],
    x[i+2]), scaled so it equals f'' for quadratics.  K annihilates
    constants and linears, matching the smoothness functional it stands
    in for.

    Returns (d0, d1, d2): main, first, and second upper diagonals.
    """
    n = x.size
    d0 = np.zeros(n)
    d1 = np.zeros(max(n - 1, 0))
    d2 = np.zeros(max(n - 2, 0))
    if n < 3:
        return d0, d1, d2
    h0 = x[1:-1] - x[:-2]
    h1 = x[2:] - x[1:-1]
    span = x[2:] - x[:-2]
    a = 2.0 / (h0 * span)
    b = -2.0 / (h0 * h1)
    c = 2.0 / (h1 * span)
    d0[:-2] += a * a
    d0[1:-1] += b * b
    d0[2:] += c * c
    d1[:-1] += a * b
    d1[1:] += b * c
    d2[:] += a * c
    return d0, d1, d2


def _penalized_bands(x, lam, w):
    """Upper-banded storage of (W + lam * K) for scipy's banded solvers."""
    n = x.size
    d0, d1, d2 = _second_difference_bands(x)
    ab = np.zeros((3, n))
    ab[2, :] = w + lam * d0
    ab[1, 1:] = lam * d1
    ab[0, 2:] = lam * d2
    return ab


def penalized_factor(x, lam, weights=None):
    """Cholesky factor of (W + lam * K); reusable across targets."""
    x = np.asarray(x, dtype=float)
    if weights is None:
        weights = np.ones_like(x)
    return cholesky_banded(
        _penalized_bands(x, lam, weights), lower=False, check_finite=False
    )


def penalized_apply(factor, y, weights=None):
    """Solve (W + lam K) f = W y with a precomputed factor."""
    rhs = np.asarray(y, dtype=float)
    if weights is not None:
        rhs = rhs * weights
    return cho_solve_banded((factor, False), rhs, check_finite=False)


def penalized_smooth(x, y, penalty, weights=None):
    """Exact minimizer of sum w (y - f)^2 + penalty * f' K f.

    K is the squared second-divided-difference operator on the knots, so
    constants and linear functions pass through unchanged and penalty -> inf
    recovers the weighted least-squares line.  Solved by a banded Cholesky
    factorization, O(n).

    Knots must be strictly increasing; collapse tied knots to weighted
    points first.
    """
    x, y, w = _check_inputs(x, y, weights)
    if penalty < 0:
        raise ValueError("penalty must be nonnegative")
    if x.size <= 2 or penalty == 0.0:
        return y.copy()
    if np.any(np.diff(x) <= 0):
        raise ValueError("knots must be strictly increasing")
    if not all(np.all(np.isfinite(a)) for a in (x, y, w)):
        raise ValueError("inputs must be finite")
    return penalized_apply(penalized_factor(x, penalty, w), y, w)


def smoother_matrix(backend, knots, parameter, weights=None,
                    max_size=MATRIX_SUPPORT_LIMIT):
    """Dense matrix realizing a smoother on the given knots.

    Column j is the smoother applied to the j-th unit vector.  Test
    support only; refuses to build matrices beyond ``max_size``.

    Parameters
    ----------
    backend : {"penalized", "kernel"}
    parameter : float
        Penalty for the penalized backend, bandwidth for the kernel one.
    """
    knots = np.asarray(knots, dtype=float)
    n = knots.size
    if n > max_size:
        raise ValueError(
            f"smoother_matrix is test support only; n={n} exceeds "
            f"max_size={max_size}"
        )
    if weights is None:
        w = np.ones(n)
    else:
        w = np.asarray(weights, dtype=float)
    if backend == "penalized":
        if parameter == 0.0 or n <= 2:
            return np.eye(n)
        return penalized_apply(
            penalized_factor(knots, parameter, w), np.diag(w)
        )
    if backend == "kernel":
        k = epanechnikov((knots[:, None] - knots[None, :]) / parameter) \
            * w[None, :]
        return k / k.sum(axis=1, keepdims=True)
    raise ValueError(f"unknown backend '{backend}'")
