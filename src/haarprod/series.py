"""Truncated formal power series and the S-transform algebra.

A series is a 1-D float array of its coefficients c_0..c_N, indexed by
power and truncated at an order N every caller names.  No function writes
into an argument.  Everything needed to go from the product law's
S-transform to its moments is here: ring operations, the moments by
Lagrange inversion, and the rational building blocks of the product law.
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


def moments_from_s(s: np.ndarray) -> list[float]:
    """First len(s) moments of the distribution with S-transform s.

    M^{-1}(z) = z S(z)/(1+z), so Lagrange inversion gives
    m_p = (1/p) [z^{p-1}] h(z)^p with h = (1+z)/S(z).  m_p reads s only
    up to z^{p-1}.  An s with a zero constant term has no h, and
    `series_div` rejects it with a SeriesError.
    """
    order = len(s) - 1
    h = series_div(series([1.0, 1.0], order), s)
    power = series([1.0], order)
    moments = []
    for p in range(1, order + 2):
        power = series_mul(power, h)
        moments.append(float(power[p - 1] / p))
    return moments


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
