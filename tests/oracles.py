"""Reference forms of the limit law that the package does not use itself.

The tests check `haarprod.limit_law` against these: S in its plain product
form, evaluated in w with no change of variable, and the equal-alpha
closed-form radial CDF and density.  None goes through `_log_s` or the inversion.
The moments -> S direction of the series algebra (`m_from_moments`,
`s_transform_of`) lives here too: the package only goes from S to moments.
`s_transform_of` and `exact_moments` revert series exactly in QQ[[z]] with
sympy, so neither shares arithmetic with `haarprod.series`.
"""

from fractions import Fraction

import numpy as np
from sympy.polys.domains import QQ
from sympy.polys.ring_series import rs_mul, rs_series_inversion, rs_series_reversion
from sympy.polys.rings import ring

from haarprod.limit_law import DomainError, RadialLaw
from haarprod.series import SeriesError, series

_R, _z, _y = ring("z, y", QQ)


def s_eval(law: RadialLaw, w: float) -> float:
    """Evaluate S(w) for w in (-1, 0]; strictly decreasing, S(0)=prod(alpha)."""
    if not (-1.0 < w <= 0.0):
        raise DomainError(f"w must lie in (-1, 0], got {w}")
    a = np.asarray(law.alphas)
    a1 = max(law.alphas)
    return float(np.prod(a * (a1 + w) / (a1 + a * w)))


def cdf_equal_alpha(alpha: float, k: int, t: float) -> float:
    """Closed-form radial CDF (alpha-1) t^{2/k} / (1 - t^{2/k}) on the support."""
    if alpha <= 1.0:
        raise DomainError(f"alpha must exceed 1, got {alpha}")
    if k < 1:
        raise DomainError(f"k must be positive, got {k}")
    edge = alpha ** (-k / 2.0)
    t = float(t)
    if t <= 0.0:
        return 0.0
    if t >= edge:
        return 1.0
    u = t ** (2.0 / k)
    return (alpha - 1.0) * u / (1.0 - u)


def pdf_equal_alpha(alpha: float, k: int, t):
    """Closed-form radial density 2(alpha-1)/k * t^{2/k-1} / (1-t^{2/k})^2, elementwise over t."""
    if alpha <= 1.0:
        raise DomainError(f"alpha must exceed 1, got {alpha}")
    if k < 1:
        raise DomainError(f"k must be positive, got {k}")
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape)
    inside = (t > 0.0) & (t < alpha ** (-k / 2.0))
    u = t[inside] ** (2.0 / k)
    out[inside] = 2.0 * (alpha - 1.0) / k * u / t[inside] / (1.0 - u) ** 2
    return out if out.ndim else float(out)


def m_from_moments(moments, order: int) -> np.ndarray:
    """Moment generating series sum_p m_p z^p (zero constant term)."""
    return series([0.0] + list(moments), order)


def s_transform_of(m: np.ndarray) -> np.ndarray:
    """S(z) = (1+z)/z * M^{-1}(z), as a series of order N-1."""
    if m[0] != 0.0:
        raise SeriesError("moment series must have zero constant term")
    if m[1] == 0.0:
        raise SeriesError("S-transform requires a nonzero first moment")
    q = np.array([float(c) for c in _reversion(_exact(m), len(m))])
    return q[:-1] + q[1:]


def exact_moments(alphas, n: int) -> list:
    """Exact rational m_1..m_n of the product law, reverting M^{-1}(z) = z S(z)/(1+z).

    Each float alpha enters as the rational it represents exactly.
    """
    a = [_rational(x) for x in alphas]
    a1 = max(a)
    num, den = _z, 1 + _z
    for ai in a:
        num *= ai * (a1 + _z)
        den *= a1 + ai * _z
    minv = rs_mul(num, rs_series_inversion(den, _z, n + 1), _z, n + 1)
    return _reversion(minv, n + 1)[1:]


def _rational(x):
    f = Fraction(float(x))
    return QQ(f.numerator, f.denominator)


def _exact(coeffs):
    """The float coefficients c_0.. as an exact element of QQ[z]."""
    return sum((_rational(c) * _z**j for j, c in enumerate(coeffs)), _R.zero)


def _reversion(f, n: int) -> list:
    """Coefficients 0..n-1 of g with f(g(z)) = z, for f with f_0 = 0 != f_1."""
    g = rs_series_reversion(f, _z, n, _y)
    return [g.coeff(_y**j) for j in range(n)]
