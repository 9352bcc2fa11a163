"""Experiment orchestration and machine-readable artifacts.

Every run is fully determined by (config, master seed): tables are
emitted with round-trippable 17-significant-digit reals, and the verify
report is byte-identical across repeated runs.  Wall-clock timings and
timestamps go to a separate .meta.json sidecar so they never perturb the
deterministic artifact.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import limit_law, series, stats
from .config import AspectConfig, ConfigError
from .haar import product_chain, substream, trace_moment
from .limit_law import RadialLaw
from .spectra import EigenSample, eigenvalues, radii_angles

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    dims: tuple[int, ...]
    trials: int = 10
    master_seed: int = 0
    delta: float = 0.001
    grid_points: int = 256
    series_order: int = 16
    moment_pmax: int = 3

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        self.aspect()  # validates n/dims
        if self.trials < 1:
            raise ConfigError(f"trials must be positive, got {self.trials}")
        if not (0 <= self.master_seed < 2**64):
            raise ConfigError("master_seed must fit in 64 unsigned bits")
        if not (0.0 < self.delta < 1.0):
            raise ConfigError(f"delta must lie in (0, 1), got {self.delta}")
        if self.grid_points < 2:
            raise ConfigError(f"grid_points must be >= 2, got {self.grid_points}")
        if self.series_order < 1:
            raise ConfigError(f"series_order must be positive, got {self.series_order}")
        if self.moment_pmax < 1:
            raise ConfigError(f"moment_pmax must be positive, got {self.moment_pmax}")

    def aspect(self) -> AspectConfig:
        return AspectConfig(n=self.n, dims=self.dims)

    def law(self) -> RadialLaw:
        """The limit law; rejects alpha = 1 (a ConfigError) for analytic modes."""
        law = RadialLaw(alphas=self.aspect().alphas)
        law.require_nondegenerate()
        return law


def _fmt(x: float) -> str:
    return "%.17g" % x


def write_table(path, header: list[str], rows) -> None:
    """Delimited UTF-8 table; reals at 17 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
            fh.write("\n")


def trial_spectra(config: AspectConfig, trials: int, master_seed: int):
    """The one sampling loop: each trial's product matrix and its spectrum.

    Yields (trial, b, (eigenvalues, radii, angles, origin_count)) in trial
    order; a numerical failure names the seed and the trial.
    """
    for t in range(trials):
        context = f"seed={master_seed} trial={t}"
        b = product_chain(config, master_seed, trial=t)
        eigs = eigenvalues(b, context=context)
        yield t, b, (eigs, *radii_angles(eigs, context))


def collect_sample(config: AspectConfig, trials: int, master_seed: int) -> EigenSample:
    """Concatenated spectra of `trials` independent product-chain draws."""
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    spectra = [spectrum for _, _, spectrum in trial_spectra(config, trials, master_seed)]
    return EigenSample.pool(spectra, master_seed, config, trials)


def eig_rows(config: AspectConfig, trials: int, master_seed: int):
    """Per-trial eigenvalue table rows (trial, re, im, radius, angle)."""
    for t, _, (eigs, radii, angles, _) in trial_spectra(config, trials, master_seed):
        for lam, r, a in zip(eigs, radii, angles):
            yield (t, float(lam.real), float(lam.imag), float(r), float(a))


def run_sample_eigs(cfg: ExperimentConfig, out_path) -> None:
    rows = eig_rows(cfg.aspect(), cfg.trials, cfg.master_seed)
    write_table(out_path, ["trial", "re", "im", "radius", "angle"], rows)


def run_analytic_cdf(cfg: ExperimentConfig, out_path) -> None:
    law = cfg.law()
    ts = np.linspace(0.0, law.support_radius, cfg.grid_points)
    fs = limit_law.cdf_many(law, ts)
    if law.equal_alpha:
        alpha = law.alphas[0]
        rows = [
            (float(t), float(f), limit_law.pdf_radial_equal_alpha(alpha, law.k, t))
            for t, f in zip(ts, fs)
        ]
        header = ["t", "cdf", "pdf"]
    else:
        rows = [(float(t), float(f)) for t, f in zip(ts, fs)]
        header = ["t", "cdf"]
    write_table(out_path, header, rows)


def run_exact_sample(cfg: ExperimentConfig, out_path) -> None:
    law = RadialLaw(alphas=cfg.aspect().alphas)
    if not law.equal_alpha:
        raise ConfigError("exact-sample requires equal aspect ratios")
    count = cfg.trials * cfg.aspect().out_dim
    draws = limit_law.exact_sample(
        law.alphas[0], law.k, count, substream(cfg.master_seed, 0)
    )
    rows = (
        (i, float(z.real), float(z.imag), float(abs(z)), float(np.mod(np.angle(z), 2 * np.pi)))
        for i, z in enumerate(draws)
    )
    write_table(out_path, ["index", "re", "im", "radius", "angle"], rows)


def series_residuals(alphas, order: int):
    """Coefficient-wise residuals of the rescaled block product vs closed form."""
    closed = series.theorem_s_series(alphas, order)
    pipeline = series.scaled_s_check(alphas, order)
    rows = [
        (j, c, p, abs(c - p))
        for j, (c, p) in enumerate(zip(closed.coeffs, pipeline.coeffs))
    ]
    return rows


def run_series_check(cfg: ExperimentConfig, out_path) -> None:
    rows = series_residuals(cfg.law().alphas, cfg.series_order)
    write_table(out_path, ["power", "closed_form", "pipeline", "residual"], rows)


def run_verify(cfg: ExperimentConfig):
    """Full pipeline: sample, compare, and assemble a report dict.

    Returns (report, meta); the report is deterministic in (config, seed),
    the meta dict holds wall-clock per phase.
    """
    law = cfg.law()  # rejects alpha = 1 before anything is sampled
    aspect = cfg.aspect()
    meta = {"timestamp": time.time(), "wall_clock_s": {}}

    t0 = time.perf_counter()
    spectra = []
    moments = np.zeros((cfg.trials, cfg.moment_pmax))
    for t, b, spectrum in trial_spectra(aspect, cfg.trials, cfg.master_seed):
        spectra.append(spectrum)
        moments[t] = [trace_moment(b, p) for p in range(1, cfg.moment_pmax + 1)]
    sample = EigenSample.pool(spectra, cfg.master_seed, aspect, cfg.trials)
    meta["wall_clock_s"]["sampling"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    radial = stats.ks_radial(sample, law, cfg.delta)
    angular = stats.ks_angular(sample, cfg.delta)
    rows = stats.moment_rows(moments, law)
    resid = series_residuals(aspect.alphas, cfg.series_order)
    meta["wall_clock_s"]["analysis"] = time.perf_counter() - t0

    def ks_dict(r):
        return {
            "label": r.label,
            "statistic": r.statistic,
            "sample_size": r.sample_size,
            "dkw_threshold": r.threshold,
            "pass": r.passed,
        }

    report = {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "n": cfg.n,
            "dims": list(cfg.dims),
            "alphas": list(aspect.alphas),
            "trials": cfg.trials,
            "master_seed": cfg.master_seed,
            "delta": cfg.delta,
            "grid_points": cfg.grid_points,
            "series_order": cfg.series_order,
        },
        "support_radius": law.support_radius,
        "origin_eigenvalues": sample.origin_count,
        "ks": [ks_dict(radial), ks_dict(angular)],
        "moments": [asdict(r) for r in rows],
        "series_check": {
            "order": cfg.series_order,
            "max_residual": max(r[3] for r in resid),
        },
    }
    return report, meta


def write_verify(cfg: ExperimentConfig, out_path) -> None:
    report, meta = run_verify(cfg)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(str(out_path) + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
