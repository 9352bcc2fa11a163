"""References for the benchmark's output checks, independent of haarprod.

Nothing here imports the package under test: each check compares a
program output with a closed form or an exact finite-n fact coded here.
"""

from __future__ import annotations

import math

import numpy as np

# Confidence parameter of every DKW gate.  A gate at delta fails a correct
# i.i.d. sample with probability at most delta; a round of benchmark runs
# makes hundreds of ops, so delta is far below 1/ops.
GATE_DELTA = 1e-6

# Deviation, in exact standard deviations, allowed for a trace moment mean.
MOMENT_SIGMAS = 6.0

SERIES_TOLERANCE = 1e-11

# cdf_many inverts S numerically; on the equal-alpha law it must agree
# with the closed form to well below any KS statistic's resolution.
KS_AGREEMENT = 1e-9


def dkw_threshold(size: int, delta: float = GATE_DELTA) -> float:
    """Massart's DKW bound: P(sup |F_n - F| > eps) <= 2 exp(-2 n eps^2)."""
    return math.sqrt(math.log(2.0 / delta) / (2.0 * size))


def ks_distance(values, model_cdf) -> float:
    """One-sample KS distance of `values` against a vectorised model CDF."""
    x = np.sort(np.asarray(values, dtype=float))
    f = model_cdf(x)
    n = len(x)
    upper = np.arange(1, n + 1) / n
    return float(max(np.max(upper - f), np.max(f - (upper - 1.0 / n))))


def equal_alpha_cdf(alpha: float, k: int):
    """Radial CDF (alpha-1) u / (1-u), u = t^(2/k), of the equal-alpha law."""
    edge = alpha ** (-k / 2.0)

    def cdf(t):
        t = np.clip(np.asarray(t, dtype=float), 0.0, edge)
        u = t ** (2.0 / k)
        with np.errstate(divide="ignore", invalid="ignore"):
            f = (alpha - 1.0) * u / (1.0 - u)
        return np.where(t >= edge, 1.0, f)

    return cdf


def uniform_angle_cdf(theta):
    return np.asarray(theta, dtype=float) / (2.0 * math.pi)


def corner_trace_moment(n: int, p: int, q: int) -> tuple[float, float]:
    """Exact mean and standard deviation of (1/p) Tr(B B*), B the p x q corner
    of an n x n Haar unitary.

    Tr(B B*) = Tr(P U Q U*) for rank-p and rank-q coordinate projections;
    the Weingarten calculus gives mean p q / n and variance
    p q (n-p)(n-q) / (n^2 (n^2-1)).
    """
    mean = p * q / n
    var = p * q * (n - p) * (n - q) / (n * n * (n * n - 1.0))
    return mean / p, math.sqrt(var) / p
