"""The analytic limit law of products of truncated Haar unitaries.

The law is rotationally invariant; its radial CDF is obtained by
inverting the strictly decreasing function

    S(w) = prod_i  alpha_i * (alpha_1 + w) / (alpha_1 + alpha_i * w)

on w in (-1, 0]:  F(t) = 1 + S^{-1}(t^{-2}) on the support
(0, 1/sqrt(prod alpha_i)].  For equal aspect ratios the CDF has the
closed form (alpha-1) t^{2/k} / (1 - t^{2/k}), which also yields an
exact sampler via a single uniform variate.

S blows up like 1/(1+w) at the left endpoint, so the inversion is
performed in the variable v = log(1+w), where it is well conditioned
over the whole range.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import ConfigError

# w below -1 + _W_FLOOR is numerically indistinguishable from -1; CDF mass
# there is far below 1e-10 for every parameter set of interest
_W_FLOOR = 1e-15
_V_FLOOR = np.log(_W_FLOOR)  # about -34.5


class DomainError(ValueError):
    """Argument outside the mathematical domain of the operation."""


class DegenerateLawError(ConfigError):
    """Analytic law requested with some alpha <= 1 (some dim not below n)."""


@dataclass(frozen=True)
class RadialLaw:
    """Radial part of the limit law for aspect ratios alpha_1..alpha_k.

    Every alpha must exceed 1 (DegenerateLawError otherwise).  The alphas keep
    the order given: the law depends on them only through alpha_1 = max(alphas)
    and products symmetric in all of them.
    """

    alphas: tuple[float, ...]

    def __post_init__(self):
        alphas = tuple(float(a) for a in self.alphas)
        if len(alphas) < 1:
            raise ValueError("at least one aspect ratio required")
        if any(a <= 1.0 for a in alphas):
            raise DegenerateLawError(
                "the analytic law requires every alpha > 1 (all dims strictly "
                "below n); alpha = 1 is only supported by exact-sample"
            )
        object.__setattr__(self, "alphas", alphas)

    @property
    def k(self) -> int:
        return len(self.alphas)

    @property
    def equal_alpha(self) -> bool:
        return all(a == self.alphas[0] for a in self.alphas)

    @cached_property
    def alpha_product(self) -> float:
        return float(np.prod(self.alphas))

    @property
    def support_radius(self) -> float:
        return 1.0 / np.sqrt(self.alpha_product)


def s_eval(law: RadialLaw, w: float) -> float:
    """Evaluate S(w) for w in (-1, 0]; strictly decreasing, S(0)=prod(alpha)."""
    if not (-1.0 < w <= 0.0):
        raise DomainError(f"w must lie in (-1, 0], got {w}")
    a = np.asarray(law.alphas)
    a1 = max(law.alphas)
    return float(np.prod(a * (a1 + w) / (a1 + a * w)))


def _log_s(law: RadialLaw, v):
    """log S(-1 + e^v) and d/dv of it, vectorized over v <= 0."""
    a = np.asarray(law.alphas)[:, None]
    a1 = max(law.alphas)
    ev = np.exp(v)
    w = -1.0 + ev
    # alpha_1 + w = alpha_1 - 1 + e^v stays positive and well scaled
    num = a1 - 1.0 + ev
    den = a1 + a * w
    logs = np.sum(np.log(a), axis=0) + law.k * np.log(num) - np.sum(np.log(den), axis=0)
    dlogs = ev * (law.k / num - np.sum(a / den, axis=0))
    return logs, dlogs


def _invert_many(law: RadialLaw, s: np.ndarray) -> np.ndarray:
    """Vectorized solve of S(-1+e^v) = s for v in [_V_FLOOR, 0]."""
    target = np.log(s)
    lo = np.full(s.shape, _V_FLOOR)
    hi = np.zeros(s.shape)
    for _ in range(70):
        mid = 0.5 * (lo + hi)
        f, _ = _log_s(law, mid)
        too_big = f > target  # S decreasing in w, hence in v
        lo = np.where(too_big, mid, lo)
        hi = np.where(too_big, hi, mid)
    v = 0.5 * (lo + hi)
    for _ in range(3):  # Newton polish, stays inside the bracket by construction
        f, df = _log_s(law, v)
        step = np.where(df != 0.0, (f - target) / df, 0.0)
        v = np.clip(v - step, _V_FLOOR, 0.0)
    return v


def cdf_many(law: RadialLaw, t) -> np.ndarray:
    """Radial CDF evaluated on an array of radii (generic numeric path)."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise DomainError("radius must be nonnegative")
    out = np.zeros(t.shape)
    out[t >= law.support_radius] = 1.0
    interior = (t > 0) & (t < law.support_radius)
    if np.any(interior):
        s = np.maximum(t[interior] ** -2.0, law.alpha_product)
        s_cap, _ = _log_s(law, np.asarray(_V_FLOOR))
        vals = np.zeros(s.shape)
        solvable = np.log(s) < s_cap  # below the cap the mass is < 1e-10
        if np.any(solvable):
            v = _invert_many(law, s[solvable])
            vals[solvable] = np.exp(v)  # 1 + w = e^v
        out[interior] = vals
    return out


def cdf(law: RadialLaw, t: float) -> float:
    """Radial CDF F(t) = 1 + S^{-1}(t^{-2}) on the support, 0/1 outside."""
    return float(cdf_many(law, np.asarray([t]))[0])


def quantile(law: RadialLaw, p: float) -> float:
    """Inverse radial CDF; closed form t = S(p-1)^{-1/2}."""
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"probability must lie in [0, 1], got {p}")
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return law.support_radius
    return 1.0 / np.sqrt(s_eval(law, p - 1.0))


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


def pdf_radial_equal_alpha(alpha: float, k: int, t: float) -> float:
    """Density of the radial part, 2(alpha-1)/k * t^{2/k-1} / (1-t^{2/k})^2."""
    if alpha <= 1.0:
        raise DomainError(f"alpha must exceed 1, got {alpha}")
    if k < 1:
        raise DomainError(f"k must be positive, got {k}")
    edge = alpha ** (-k / 2.0)
    t = float(t)
    if t <= 0.0 or t >= edge:
        return 0.0
    u = t ** (2.0 / k)
    return 2.0 * (alpha - 1.0) / k * u / t / (1.0 - u) ** 2


def radius_from_uniform(u, alpha: float, k: int):
    """Map a Uniform[0,1] variate to a radius: R^2 = (u / (alpha-1+u))^k."""
    if alpha < 1.0:
        raise DomainError(f"alpha must be >= 1, got {alpha}")
    u = np.asarray(u, dtype=float)
    if alpha == 1.0:
        return np.ones(u.shape)
    return np.sqrt((u / (alpha - 1.0 + u)) ** k)


def exact_sample(alpha: float, k: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. complex draws from the equal-alpha limit law.

    Radius via the single-uniform closed form, angle uniform on [0, 2*pi)
    independently; alpha = 1 degenerates to the unit circle.
    """
    if k < 1:
        raise DomainError(f"k must be positive, got {k}")
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    r = radius_from_uniform(rng.random(count), alpha, k)
    theta = rng.random(count) * 2.0 * np.pi
    return r * np.exp(1j * theta)
