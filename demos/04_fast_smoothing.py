"""The linear-time kernel smoother versus the direct quadratic one.

The Epanechnikov kernel is a degree-2 polynomial, so windowed kernel
sums decompose into sliding cumulative sums; one sweep replaces the
point-by-point evaluation.  Same answer, different cost curve.
"""

import time

import numpy as np

from fxam import fast_kernel_smooth, naive_kernel_smooth

rng = np.random.default_rng(3)

print(f"{'n':>8} {'direct (s)':>12} {'fast (s)':>10} {'speedup':>9} "
      f"{'max rel gap':>12}")
for n in (2_000, 10_000, 50_000):
    x = np.sort(rng.uniform(0, 100, n))
    y = np.sin(x / 5.0) + rng.normal(0, 0.5, n)
    h = 5.0

    t0 = time.perf_counter()
    direct = naive_kernel_smooth(x, y, h)
    direct_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    fast = fast_kernel_smooth(x, y, h)
    fast_s = time.perf_counter() - t0

    gap = float(np.max(np.abs(fast - direct)
                       / np.maximum(np.abs(direct), 1e-9)))
    print(f"{n:>8} {direct_s:>12.3f} {fast_s:>10.4f} "
          f"{direct_s / fast_s:>8.0f}x {gap:>12.2e}")

# measured time per point as n grows stays near level: one sweep of
# cumulative sums, plus binary searches for the window bounds
for n in (50_000, 100_000, 200_000):
    x = np.sort(rng.uniform(0, 10, n))
    y = rng.normal(size=n)
    best = np.inf
    for _ in range(3):
        t0 = time.perf_counter()
        fast_kernel_smooth(x, y, 0.5)
        best = min(best, time.perf_counter() - t0)
    print(f"n={n}: {best / n * 1e9:.0f} ns per point (best of 3)")
