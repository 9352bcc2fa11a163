"""Truncated formal power series and the S-transform algebra.

Series are plain coefficient tuples indexed by power, truncated at an
order every caller names.  Everything needed to reproduce the moment
series / S-transform pipeline is here: ring operations, composition,
compositional inverse by Newton iteration, and the specific rational
building blocks of the product law.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SeriesError(ValueError):
    """Operation undefined for the given series (bad leading coefficients)."""


@dataclass(frozen=True)
class PowerSeries:
    """Coefficients c_0..c_N of sum c_j z^j, truncated at power N."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def array(self) -> np.ndarray:
        return np.asarray(self.coeffs)


def series(coeffs, order: int) -> PowerSeries:
    """Build a series from low-order coefficients, zero-padded to `order`."""
    a = list(coeffs)[: order + 1]
    a += [0.0] * (order + 1 - len(a))
    return PowerSeries(tuple(a))


def identity_series(order: int) -> PowerSeries:
    return series([0.0, 1.0], order)


def series_mul(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    order = min(a.order, b.order)
    c = np.convolve(a.array(), b.array())[: order + 1]
    return PowerSeries(tuple(c))


def series_div(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """Truncated quotient a/b; the divisor must have a nonzero constant term."""
    if b.coeffs[0] == 0.0:
        raise SeriesError("divisor has a zero constant term")
    order = min(a.order, b.order)
    aa, bb = a.array(), b.array()
    q = np.zeros(order + 1)
    for j in range(order + 1):
        q[j] = (aa[j] - np.dot(q[:j], bb[j:0:-1])) / bb[0]
    return PowerSeries(tuple(q))


def series_compose(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """a(b(z)) for b with zero constant term, by Horner evaluation."""
    if b.coeffs[0] != 0.0:
        raise SeriesError("inner series must have zero constant term")
    order = min(a.order, b.order)
    acc = series([a.coeffs[a.order]], order)
    for j in range(a.order - 1, -1, -1):
        acc = series_mul(acc, b)
        acc = series([acc.coeffs[0] + a.coeffs[j]] + list(acc.coeffs[1:]), order)
    return acc


def derivative(a: PowerSeries) -> PowerSeries:
    d = [j * c for j, c in enumerate(a.coeffs)][1:]
    return series(d, a.order)


def comp_inverse(f: PowerSeries) -> PowerSeries:
    """Compositional inverse g with f(g(z)) = z, by Newton iteration.

    Requires c_0 = 0 and c_1 != 0.  Each step doubles the number of
    correct coefficients, so log2(order) + a margin of steps suffice.
    """
    if f.coeffs[0] != 0.0:
        raise SeriesError("compositional inverse requires zero constant term")
    if f.coeffs[1] == 0.0:
        raise SeriesError("compositional inverse requires nonzero linear term")
    order = f.order
    z = identity_series(order)
    fp = derivative(f)
    g = series([0.0, 1.0 / f.coeffs[1]], order)
    steps = max(3, int(np.ceil(np.log2(order + 1))) + 2)
    for _ in range(steps):
        resid = series_compose(f, g).array() - z.array()
        slope = series_compose(fp, g)
        g = PowerSeries(tuple(g.array() - series_div(PowerSeries(tuple(resid)), slope).array()))
    return g


def m_from_moments(moments, order: int) -> PowerSeries:
    """Moment generating series sum_p m_p z^p (zero constant term)."""
    return series([0.0] + list(moments), order)


def s_transform_of(m: PowerSeries) -> PowerSeries:
    """S(z) = (1+z)/z * M^{-1}(z), as a series of order N-1."""
    if m.coeffs[0] != 0.0:
        raise SeriesError("moment series must have zero constant term")
    if m.coeffs[1] == 0.0:
        raise SeriesError("S-transform requires a nonzero first moment")
    q = comp_inverse(m).coeffs
    return series([q[j] + q[j + 1] for j in range(m.order)], m.order - 1)


def moments_from_s(s: PowerSeries) -> list[float]:
    """First N moments of the distribution with S-transform s.

    Inverts the defining map: M^{-1}(z) = z/(1+z) * S(z), then takes the
    compositional inverse to recover the moment series.
    """
    if s.coeffs[0] == 0.0:
        raise SeriesError("S-transform must have nonzero constant term")
    order = s.order + 1
    shifted = series([0.0] + list(s.coeffs), order)
    minv = series_div(shifted, series([1.0, 1.0], order))
    m = comp_inverse(minv)
    return list(m.coeffs[1:])


def rational_series(num, den, order: int) -> PowerSeries:
    """Taylor expansion of a polynomial ratio."""
    return series_div(series(num, order), series(den, order))


def s_block(alpha: float, order: int) -> PowerSeries:
    """S-transform of a corner projection: alpha (1+z) / (1 + alpha z)."""
    return rational_series([alpha, alpha], [1.0, alpha], order)


def theorem_s_series(alphas, order: int) -> PowerSeries:
    """Taylor expansion of the closed-form product S-transform.

    prod_i alpha_i (alpha_1 + z) / (alpha_1 + alpha_i z), with alpha_1
    the largest aspect ratio.
    """
    a1 = max(alphas)
    out = series([1.0], order)
    for a in alphas:
        out = series_mul(out, rational_series([a * a1, a], [a1, a], order))
    return out


def product_s_check(alphas, order: int) -> PowerSeries:
    """Series product of the k+1 projection blocks (the un-rescaled law).

    The first block, for the minimal dimension (alpha_1 = max(alphas)),
    enters twice.
    """
    out = s_block(max(alphas), order)
    for a in alphas:
        out = series_mul(out, s_block(a, order))
    return out


def scaled_s_check(alphas, order: int) -> PowerSeries:
    """Apply the trace-rescaling identity to the block product.

    S(z) = (1+z)/(alpha_1+z) * S_tilde(z/alpha_1); the result must equal
    the closed-form series coefficient-wise.
    """
    a1 = max(alphas)
    tilde = product_s_check(alphas, order)
    scaled = PowerSeries(tuple(c / a1**j for j, c in enumerate(tilde.coeffs)))
    return series_mul(scaled, rational_series([1.0, 1.0], [a1, 1.0], order))
