"""KS comparison of empirical spectra against the analytic limit law."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import limit_law, series
from .limit_law import RadialLaw
from .spectra import polar


@dataclass(frozen=True)
class KsReport:
    """One-sample KS statistic with its DKW sampling-noise threshold.

    The threshold sqrt(ln(2/delta) / (2 n)) bounds Monte-Carlo noise
    only.  Against the limit law the statistic also carries the
    finite-size model bias, which at m = 600 (k = 1, alpha = 2) is at
    least the 0.023 edge mass; the acceptance suite measures that bias
    against the exact finite-n law.  The fields are the `verify` report's
    `ks` keys; `passed` is its "pass".
    """

    label: str
    statistic: float
    sample_size: int
    dkw_threshold: float

    @property
    def passed(self) -> bool:
        return self.statistic <= self.dkw_threshold


@dataclass(frozen=True)
class MomentRow:
    """Mean trace moment over the trials against its limit value.

    `z_score` divides by the standard error from the trials' own spread,
    so it is a t statistic with trials - 1 degrees of freedom: Cauchy-like
    at 2 trials, where a large |z| is no evidence against the sampler.
    """

    p: int
    empirical_mean: float
    std_error: float | None  # None for one trial
    analytic: float
    z_score: float | None  # None for one trial or zero spread


def dkw_threshold(sample_size: int, delta: float) -> float:
    if sample_size < 1:
        raise ValueError("empty sample")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    # log 2 - log delta, not log(2 / delta): 2 / delta overflows for a subnormal delta
    return float(np.sqrt((np.log(2.0) - np.log(delta)) / (2.0 * sample_size)))


def ks_statistic(values: np.ndarray, cdf_values: np.ndarray) -> float:
    """Sup distance between the empirical CDF of `values` and a model CDF.

    cdf_values must be the model CDF evaluated at the *sorted* values.
    """
    n = len(values)
    if n == 0:
        raise ValueError("empty sample")
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - cdf_values), np.max(cdf_values - (grid - 1.0 / n))))


def ks_radial(eigs: np.ndarray, law: RadialLaw, delta: float = 0.001) -> KsReport:
    """KS distance of pooled eigenvalues' radii (`spectra.polar`) against the radial CDF."""
    return ks_radii_against_law(polar(eigs)[0], law, delta)


def ks_radii_against_law(radii: np.ndarray, law: RadialLaw, delta: float = 0.001) -> KsReport:
    """KS distance of a bare radius array (eigenvalue or exact draws) against the law."""
    return _ks_report(np.asarray(radii, dtype=float), lambda r: limit_law.cdf_many(law, r),
                      delta, "radial")


def ks_angular(eigs: np.ndarray, delta: float = 0.001) -> KsReport:
    """KS distance of pooled eigenvalues' angles (`spectra.polar`) against Uniform[0, 2*pi).

    Eigenvalues at the origin have no angle and are excluded; if none is
    left, `ks_statistic` rejects the empty sample with a ValueError.
    """
    radii, angles = polar(eigs)
    return _ks_report(angles[radii > 0], lambda a: a / (2.0 * np.pi), delta, "angular")


def _ks_report(values: np.ndarray, model_cdf, delta: float, label: str) -> KsReport:
    """KS statistic of `values` against a vectorised model CDF, with its DKW threshold."""
    values = np.sort(values)
    return KsReport(label, ks_statistic(values, model_cdf(values)), len(values),
                    dkw_threshold(len(values), delta))


def analytic_moments(law: RadialLaw, p_max: int) -> list[float]:
    """Limit trace moments (1/m) Tr((BB*)^p), p = 1..p_max, from the closed-form S.

    These are moments of the squared singular values, not of the squared radius.
    """
    s = series.theorem_s_series(law.alphas, order=p_max - 1)
    return series.moments_from_s(s)


def moment_rows(per_trial: np.ndarray, law: RadialLaw) -> list[MomentRow]:
    """Assemble moment rows from a (trials, p_max) table of trace moments."""
    p_max = per_trial.shape[1]
    analytic = analytic_moments(law, p_max)
    rows = []
    for p in range(1, p_max + 1):
        emp = per_trial[:, p - 1]
        mean = float(emp.mean())
        se = float(emp.std(ddof=1) / np.sqrt(len(emp))) if len(emp) > 1 else None
        z = float((mean - analytic[p - 1]) / se) if se else None
        rows.append(MomentRow(p, mean, se, analytic[p - 1], z))
    return rows
