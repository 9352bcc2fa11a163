"""Experiment orchestration and machine-readable artifacts.

Every run is fully determined by (config, master seed) at a fixed BLAS
thread count: tables are emitted with round-trippable 17-significant-digit
reals, and the verify report is byte-identical across repeated runs.
Wall-clock timings and timestamps go to a separate .meta.json sidecar so
they never perturb the deterministic artifact.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass

import numpy as np
import scipy

from . import limit_law, series, stats
from .config import AspectConfig, ConfigError
from .haar import product_chain, substream, trace_moment
from .limit_law import RadialLaw
from .spectra import EigenSample, eigenvalues, radii_angles

SCHEMA_VERSION = 1
# fixed analysis settings of `verify` and `series-check`
SERIES_ORDER = 16
MOMENT_PMAX = 3


@dataclass(frozen=True)
class ExperimentConfig(AspectConfig):
    """A run's parameters: the dimension chain plus sampling and test settings."""

    trials: int = 10
    master_seed: int = 0
    delta: float = 0.001
    grid_points: int = 256

    def __post_init__(self):
        super().__post_init__()
        if self.trials < 1:
            raise ConfigError(f"trials must be positive, got {self.trials}")
        if not (0 <= self.master_seed < 2**64):
            raise ConfigError("master_seed must fit in 64 unsigned bits")
        if not (0.0 < self.delta < 1.0):
            raise ConfigError(f"delta must lie in (0, 1), got {self.delta}")
        if self.grid_points < 2:
            raise ConfigError(f"grid_points must be >= 2, got {self.grid_points}")


def environment() -> dict:
    """What a report's last digits depend on: library builds and BLAS threads."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads_env": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
    }


def _fmt(x: float) -> str:
    return "%.17g" % x


def write_table(path, header: list[str], rows) -> None:
    """Delimited UTF-8 table; reals at 17 significant digits.

    Rows go to `path`.tmp, which replaces `path` once all are written, so a
    failure while they are computed leaves an earlier table at `path` as it was.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
                fh.write("\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


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
    return EigenSample.pool(spectra)


def eig_rows(config: AspectConfig, trials: int, master_seed: int):
    """Per-trial eigenvalue table rows (trial, re, im, radius, angle)."""
    for t, _, (eigs, radii, angles, _) in trial_spectra(config, trials, master_seed):
        for lam, r, a in zip(eigs, radii, angles):
            yield (t, float(lam.real), float(lam.imag), float(r), float(a))


def run_sample_eigs(cfg: ExperimentConfig, out_path) -> None:
    rows = eig_rows(cfg, cfg.trials, cfg.master_seed)
    write_table(out_path, ["trial", "re", "im", "radius", "angle"], rows)


def run_analytic_cdf(cfg: ExperimentConfig, out_path) -> None:
    law = RadialLaw(cfg.alphas)
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
    if len(set(cfg.alphas)) > 1:
        raise ConfigError("exact-sample requires equal aspect ratios")
    count = cfg.trials * cfg.out_dim
    draws = limit_law.exact_sample(
        cfg.alphas[0], cfg.k, count, substream(cfg.master_seed, 0)
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
        for j, (c, p) in enumerate(zip(closed.tolist(), pipeline.tolist()))
    ]
    return rows


def run_series_check(cfg: ExperimentConfig, out_path) -> None:
    law = RadialLaw(cfg.alphas)
    rows = series_residuals(law.alphas, SERIES_ORDER)
    write_table(out_path, ["power", "closed_form", "pipeline", "residual"], rows)


def run_verify(cfg: ExperimentConfig):
    """Full pipeline: sample, compare, and assemble a report dict.

    Returns (report, meta); the report is deterministic in (config, seed)
    at one BLAS thread count, the meta dict holds wall-clock per phase and
    the environment those digits depend on.
    """
    law = RadialLaw(cfg.alphas)  # rejects alpha = 1 before anything is sampled
    meta = {"timestamp": time.time(), "wall_clock_s": {}, "environment": environment()}

    t0 = time.perf_counter()
    spectra = []
    moments = np.zeros((cfg.trials, MOMENT_PMAX))
    for t, b, spectrum in trial_spectra(cfg, cfg.trials, cfg.master_seed):
        spectra.append(spectrum)
        moments[t] = [trace_moment(b, p) for p in range(1, MOMENT_PMAX + 1)]
    sample = EigenSample.pool(spectra)
    meta["wall_clock_s"]["sampling"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    radial = stats.ks_radial(sample, law, cfg.delta)
    angular = stats.ks_angular(sample, cfg.delta)
    rows = stats.moment_rows(moments, law)
    resid = series_residuals(cfg.alphas, SERIES_ORDER)
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
        "config": {**asdict(cfg), "alphas": cfg.alphas, "series_order": SERIES_ORDER},
        "support_radius": law.support_radius,
        "origin_eigenvalues": sample.origin_count,
        "ks": [ks_dict(radial), ks_dict(angular)],
        "moments": [asdict(r) for r in rows],
        "series_check": {
            "order": SERIES_ORDER,
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
