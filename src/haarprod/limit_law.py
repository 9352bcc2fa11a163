"""The analytic limit law of products of truncated Haar unitaries.

The law is rotationally invariant; its radial CDF is obtained by
inverting the strictly decreasing function

    S(w) = prod_i  alpha_i * (alpha_1 + w) / (alpha_1 + alpha_i * w)

on w in (-1, 0]:  F(t) = 1 + S^{-1}(t^{-2}) on the support
(0, 1/sqrt(prod alpha_i)].  The quantile is S(p - 1)^{-1/2}, so one
uniform variate gives one exact radius.

S blows up like 1/(1+w) at the left endpoint, so S is evaluated, and the
CDF inverted, in the variable v = log(1+w) = log F, where both are well
conditioned over the whole range.  The density follows from the same
inversion: log S(v) = -2 log t gives f(t) = -2F / (t d log S/dv).
`cdf_many`, `pdf_many` and `quantile` give a float for a scalar argument.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ConfigError

# w below -1 + _W_FLOOR is numerically indistinguishable from -1; CDF mass
# there is far below 1e-10 for every parameter set of interest
_W_FLOOR = 1e-15
_V_FLOOR = np.log(_W_FLOOR)  # about -34.5
# the inversion schedule of _invert_many: 12 + 8 = 20 passes of _log_s per cdf_many
_BISECTION_STEPS = 12
_NEWTON_STEPS = 8


class DomainError(ValueError):
    """Argument outside the mathematical domain of the operation."""


class DegenerateLawError(ConfigError):
    """Analytic law requested with some alpha <= 1 (some dim not below n) or not finite."""


@dataclass(frozen=True)
class RadialLaw:
    """Radial part of the limit law for aspect ratios alpha_1..alpha_k.

    Every alpha must be finite and exceed 1 (DegenerateLawError otherwise).  The alphas keep
    the order given: the law depends on them only through alpha_1 = max(alphas)
    and products symmetric in all of them.
    """

    alphas: tuple[float, ...]

    def __post_init__(self):
        alphas = tuple(float(a) for a in self.alphas)
        if len(alphas) < 1:
            raise ValueError("at least one aspect ratio required")
        if not all(1.0 < a < np.inf for a in alphas):  # also rejects NaN
            raise DegenerateLawError(
                "the analytic law requires every alpha finite and > 1 (all dims strictly below n), "
                f"got {alphas}; alpha = 1 is only supported by sample-eigs and exact-sample"
            )
        object.__setattr__(self, "alphas", alphas)

    @property
    def k(self) -> int:
        return len(self.alphas)

    @property
    def support_radius(self) -> float:
        return 1.0 / np.sqrt(np.prod(self.alphas))


def _log_s(law: RadialLaw, v):
    """log S(-1 + e^v) and d/dv of it, vectorized over v <= 0."""
    a1 = max(law.alphas)
    ev = np.exp(v)
    # alpha_1 + w and alpha_1 + alpha_i w as sums of nonnegative terms, so no 1
    # cancels against e^v; one pass per factor beats a (k, len(v)) broadcast
    num = a1 - 1.0 + ev
    log_den = dden = 0.0
    for a in law.alphas:
        den = (a1 - a) + a * ev
        log_den = log_den + np.log(den)
        dden = dden + a / den
    logs = np.sum(np.log(law.alphas)) + law.k * np.log(num) - log_den
    return logs, ev * (law.k / num - dden)


def _invert_many(law: RadialLaw, s: np.ndarray) -> np.ndarray:
    """Vectorized solve of S(-1+e^v) = s for v in [_V_FLOOR, 0].

    Bisection narrows each point's bracket to width -_V_FLOOR / 2**12 (about
    0.008); Newton steps from its midpoint then double the correct digits per
    step, each step clipped to that point's own bracket.  d log S/dv < 0, so a
    point solved below the floor (s = inf included) ends exactly on _V_FLOOR.
    """
    target = np.log(s)
    lo = np.full(s.shape, _V_FLOOR)
    hi = np.zeros(s.shape)
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        f, _ = _log_s(law, mid)
        too_big = f > target  # S decreasing in w, hence in v
        lo = np.where(too_big, mid, lo)
        hi = np.where(too_big, hi, mid)
    v = 0.5 * (lo + hi)
    for _ in range(_NEWTON_STEPS):
        f, df = _log_s(law, v)
        v = np.clip(v - (f - target) / df, lo, hi)
    return v


def cdf_many(law: RadialLaw, t):
    """Radial CDF F(t) = 1 + S^{-1}(t^{-2}) elementwise over t >= 0, 0/1 off the support."""
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0):  # also rejects NaN
        raise DomainError("radius must be nonnegative, not NaN")
    out = np.zeros(t.shape)
    out[t >= law.support_radius] = 1.0
    interior = (t > 0) & (t < law.support_radius)
    with np.errstate(over="ignore"):  # t < 1e-154 gives inf: the bracket maps it to the floor
        s = t[interior] ** -2.0
    v = _invert_many(law, s)
    out[interior] = np.where(v > _V_FLOOR, np.exp(v), 0.0)  # 1 + w = e^v, 0 on the floor
    return out if out.ndim else float(out)


def pdf_many(law: RadialLaw, t):
    """Radial density f(t) = -2F / (t d log S/dv) at v = log F, elementwise over t >= 0.

    One `_log_s` pass after `cdf_many`; exactly 0 wherever F is 0 or 1.
    """
    t = np.asarray(t, dtype=float)
    f = np.asarray(cdf_many(law, t))
    out = np.zeros(t.shape)
    inner = (f > 0.0) & (f < 1.0)
    _, dlogs = _log_s(law, np.log(f[inner]))
    out[inner] = -2.0 * f[inner] / (t[inner] * dlogs)
    return out if out.ndim else float(out)


def quantile(law: RadialLaw, p):
    """Inverse radial CDF t = S(p - 1)^{-1/2}, elementwise over p in [0, 1].

    Exactly 0 at p = 0 and the support radius at p = 1; a scalar p gives a scalar.
    """
    p = np.asarray(p, dtype=float)
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise DomainError(f"probability must lie in [0, 1], got {p}")
    t = np.zeros(p.shape)
    t[p == 1.0] = law.support_radius
    inner = (p > 0.0) & (p < 1.0)
    t[inner] = np.exp(-0.5 * _log_s(law, np.log(p[inner]))[0])  # 1 + w = p = e^v
    return t if t.ndim else float(t)


def exact_sample(alpha: float, k: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. complex draws from the equal-alpha limit law.

    Radius by the quantile of one uniform variate, then angle uniform on
    [0, 2*pi) independently; alpha = 1 degenerates to the unit circle, and
    alpha < 1 or not finite raises DegenerateLawError (a ValueError).
    `rng.random` rejects a negative `count` (ValueError) before any draw.
    """
    if k < 1:
        raise DomainError(f"k must be positive, got {k}")
    u = rng.random(count)
    r = np.ones(count) if alpha == 1.0 else quantile(RadialLaw((alpha,) * k), u)
    theta = rng.random(count) * 2.0 * np.pi
    return r * np.exp(1j * theta)
