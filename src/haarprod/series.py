"""Truncated formal power series and the S-transform algebra.

A series is a 1-D float array of its coefficients c_0..c_N, indexed by
power and truncated at an order N every caller names.  No function writes
into an argument.  Everything needed to go from the product law's
S-transform to its moments is here: ring operations, composition,
compositional inverse by Newton iteration, and the specific rational
building blocks of the product law.
"""

from __future__ import annotations

import numpy as np


class SeriesError(ValueError):
    """Operation undefined for the given series (bad leading coefficients)."""


def series(coeffs, order: int) -> np.ndarray:
    """Build a series from low-order coefficients, zero-padded to `order`."""
    a = list(coeffs)[: order + 1]
    a += [0.0] * (order + 1 - len(a))
    return np.array(a, dtype=float)


def identity_series(order: int) -> np.ndarray:
    return series([0.0, 1.0], order)


def series_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    order = min(len(a), len(b)) - 1
    return np.convolve(a, b)[: order + 1]


def series_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated quotient a/b; the divisor must have a nonzero constant term."""
    if b[0] == 0.0:
        raise SeriesError("divisor has a zero constant term")
    order = min(len(a), len(b)) - 1
    q = np.zeros(order + 1)
    for j in range(order + 1):
        q[j] = (a[j] - np.dot(q[:j], b[j:0:-1])) / b[0]
    return q


def series_compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a(b(z)) for b with zero constant term, by Horner evaluation."""
    if b[0] != 0.0:
        raise SeriesError("inner series must have zero constant term")
    order = min(len(a), len(b)) - 1
    acc = series([a[-1]], order)
    for j in range(len(a) - 2, -1, -1):
        acc = series_mul(acc, b)
        acc[0] += a[j]
    return acc


def derivative(a: np.ndarray) -> np.ndarray:
    return series(a[1:] * np.arange(1, len(a)), len(a) - 1)


def comp_inverse(f: np.ndarray) -> np.ndarray:
    """Compositional inverse g with f(g(z)) = z, by Newton iteration.

    Requires c_0 = 0 and c_1 != 0.  Each step doubles the number of
    correct coefficients, so log2(order) + a margin of steps suffice.
    """
    if f[0] != 0.0:
        raise SeriesError("compositional inverse requires zero constant term")
    if f[1] == 0.0:
        raise SeriesError("compositional inverse requires nonzero linear term")
    order = len(f) - 1
    z = identity_series(order)
    fp = derivative(f)
    g = series([0.0, 1.0 / f[1]], order)
    steps = max(3, int(np.ceil(np.log2(order + 1))) + 2)
    for _ in range(steps):
        resid = series_compose(f, g) - z
        g = g - series_div(resid, series_compose(fp, g))
    return g


def moments_from_s(s: np.ndarray) -> list[float]:
    """First N moments of the distribution with S-transform s.

    Inverts the defining map: M^{-1}(z) = z/(1+z) * S(z), then takes the
    compositional inverse to recover the moment series.
    """
    if s[0] == 0.0:
        raise SeriesError("S-transform must have nonzero constant term")
    order = len(s)
    shifted = series([0.0] + list(s), order)
    minv = series_div(shifted, series([1.0, 1.0], order))
    return comp_inverse(minv)[1:].tolist()


def rational_series(num, den, order: int) -> np.ndarray:
    """Taylor expansion of a polynomial ratio."""
    return series_div(series(num, order), series(den, order))


def s_block(alpha: float, order: int) -> np.ndarray:
    """S-transform of a corner projection: alpha (1+z) / (1 + alpha z)."""
    return rational_series([alpha, alpha], [1.0, alpha], order)


def theorem_s_series(alphas, order: int) -> np.ndarray:
    """Taylor expansion of the closed-form product S-transform.

    prod_i alpha_i (alpha_1 + z) / (alpha_1 + alpha_i z), with alpha_1
    the largest aspect ratio.
    """
    a1 = max(alphas)
    out = series([1.0], order)
    for a in alphas:
        out = series_mul(out, rational_series([a * a1, a], [a1, a], order))
    return out


def product_s_check(alphas, order: int) -> np.ndarray:
    """Series product of the k+1 projection blocks (the un-rescaled law).

    The first block, for the minimal dimension (alpha_1 = max(alphas)),
    enters twice.
    """
    out = s_block(max(alphas), order)
    for a in alphas:
        out = series_mul(out, s_block(a, order))
    return out


def scaled_s_check(alphas, order: int) -> np.ndarray:
    """Apply the trace-rescaling identity to the block product.

    S(z) = (1+z)/(alpha_1+z) * S_tilde(z/alpha_1); the result must equal
    the closed-form series coefficient-wise.
    """
    a1 = max(alphas)
    tilde = product_s_check(alphas, order)
    scaled = np.array([c / a1**j for j, c in enumerate(tilde)])
    return series_mul(scaled, rational_series([1.0, 1.0], [a1, 1.0], order))
