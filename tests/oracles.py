"""Reference forms of the limit law that the package does not use itself.

The tests check `haarprod.limit_law` against these: S in its plain product
form, evaluated in w with no change of variable, and the equal-alpha
closed-form radial CDF.  Neither goes through `_log_s` or the inversion.
"""

import numpy as np

from haarprod.limit_law import DomainError, RadialLaw


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
