"""Experiment orchestration and machine-readable artifacts.

Every run is fully determined by its config (seed included) at a fixed BLAS
thread count.  A table is a dict of named 1-D columns, streamed row by row
as integers or round-trippable 17-significant-digit reals; the verify
report is byte-identical across repeated runs.  Wall-clock timings and
timestamps go to a separate .meta.json sidecar so they never perturb the
deterministic artifact.  Every file is written to `<path>.tmp` and then
moved into place, so a failed write never leaves a truncated file at `<path>`.
"""

from __future__ import annotations

import itertools
import json
import os
import resource
import time
from dataclasses import asdict

import numpy as np
import scipy.linalg

from . import limit_law, series, stats
from .config import AspectConfig, ConfigError
from .haar import product_chain, substream, trace_moment
from .limit_law import RadialLaw

SCHEMA_VERSION = 1
# fixed analysis settings of `verify` and `series-check`
SERIES_ORDER = 16
MOMENT_PMAX = 3
# rows per `%` formatting call in write_table
_BLOCK_ROWS = 1024


def environment() -> dict:
    """What a report's last digits depend on: library builds and BLAS threads.

    numpy and scipy may each bundle their own BLAS: `blas` is numpy's (the
    product matmul and the SVD), `scipy_blas` is scipy's (the QR and eigvals).
    """
    def blas(show_config):
        build = show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": build.get("name"), "version": build.get("version")}

    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas(np.show_config),
        "scipy_blas": blas(scipy.show_config),
        "threads_env": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
    }


def _replace(path, chunks) -> None:
    """Write the strings `chunks` to `path`.tmp, then move it over `path`.

    A failure while the chunks are produced or written leaves `path` as it was.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_table(path, columns: dict) -> None:
    """Comma-separated UTF-8 table of named 1-D columns of equal length.

    The header is the column names; integer columns are written as integers,
    all others as reals at 17 significant digits.  Rows are formatted in
    blocks of _BLOCK_ROWS as they are written, from Python numbers; columns
    of unequal length raise ValueError and leave `path` as it was.
    """
    cols = [np.asarray(c) for c in columns.values()]
    if len({len(c) for c in cols}) > 1:
        raise ValueError(f"columns of unequal length: {[len(c) for c in cols]}")
    row_format = ",".join("%d" if c.dtype.kind in "iu" else "%.17g" for c in cols) + "\n"

    def blocks():
        yield ",".join(columns) + "\n"
        for start in range(0, len(cols[0]) if cols else 0, _BLOCK_ROWS):
            rows = list(zip(*(c[start:start + _BLOCK_ROWS].tolist() for c in cols)))
            yield (row_format * len(rows)) % tuple(itertools.chain.from_iterable(rows))

    _replace(path, blocks())


def written_paths(out_path, verify: bool) -> list[str]:
    """Every path a run writes: `out_path`, the `verify` sidecar, then the .tmp of each."""
    final = [str(out_path), f"{out_path}.meta.json"] if verify else [str(out_path)]
    return final + [f"{path}.tmp" for path in final]


# eigenvalues of a contraction may poke above 1 by roundoff; anything
# larger than this is treated as a real failure, not noise
RADIUS_SLACK = 1e-8


class NumericalError(RuntimeError):
    """A trial's numerics failed: the eigen-solver, the SVD, or a NaN radius or one past 1."""


def eigenvalues(b: np.ndarray) -> np.ndarray:
    """All eigenvalues (with multiplicity); scipy rejects a non-square or non-finite b."""
    return scipy.linalg.eigvals(b)


def trial_spectrum(config: AspectConfig, trial: int, p_max: int):
    """One trial: its eigenvalues and, for p_max > 0, its trace moments p = 1..p_max.

    The moments come from B's singular values, one SVD; p_max = 0 takes none
    and gives None.  B is built and dropped in here, so a caller holds one
    trial's matrices at a time.  Here a failed trial (a LinAlgError of the
    eigen-solver or the SVD, a NaN radius or one beyond the unit disk) becomes
    one NumericalError that names the seed and the trial.
    """
    b = product_chain(config, trial=trial)
    try:
        eigs = eigenvalues(b)
        radius = np.abs(eigs).max()
        if not radius <= 1.0 + RADIUS_SLACK:  # also rejects NaN
            raise NumericalError(f"eigenvalue radius {radius:.3e} exceeds 1 beyond roundoff slack")
        return eigs, trace_moment(b, p_max) if p_max else None
    except (np.linalg.LinAlgError, NumericalError) as exc:
        raise NumericalError(f"{exc} (seed={config.master_seed} trial={trial})") from exc


def collect_sample(config: AspectConfig, p_max: int = 0) -> tuple[np.ndarray, np.ndarray | None]:
    """The one loop over a config's trials, in trial order: pooled eigenvalues and moments.

    The moments are the (trials, p_max) table of trace moments for p_max > 0;
    p_max = 0 takes no SVD and gives None.
    """
    spectra, moments = zip(*[trial_spectrum(config, t, p_max) for t in range(config.trials)])
    return np.concatenate(spectra), np.array(moments) if p_max else None


def _point_columns(z: np.ndarray) -> dict:
    """The table columns of complex points: re, im, and `stats.polar`'s radius and angle."""
    radii, angles = stats.polar(z)
    return {"re": z.real, "im": z.imag, "radius": radii, "angle": angles}


def run_sample_eigs(cfg: AspectConfig, out_path) -> None:
    eigs, _ = collect_sample(cfg)
    write_table(out_path, {"trial": np.repeat(np.arange(cfg.trials), cfg.out_dim),
                           **_point_columns(eigs)})


def run_analytic_cdf(cfg: AspectConfig, out_path) -> None:
    law = RadialLaw(cfg.alphas)
    ts = np.linspace(0.0, law.support_radius, cfg.grid_points)
    columns = {"t": ts, "cdf": limit_law.cdf_many(law, ts)}
    if len(set(law.alphas)) == 1:
        columns["pdf"] = limit_law.pdf_many(law, ts)
    write_table(out_path, columns)


def run_exact_sample(cfg: AspectConfig, out_path) -> None:
    if len(set(cfg.alphas)) > 1:
        raise ConfigError("exact-sample requires equal aspect ratios")
    count = cfg.trials * cfg.out_dim
    z = limit_law.exact_sample(cfg.alphas[0], cfg.k, count, substream(cfg.master_seed, 0))
    write_table(out_path, {"index": np.arange(count), **_point_columns(z)})


def series_residuals(alphas, order: int) -> dict:
    """Coefficient-wise residuals of the rescaled block product vs closed form."""
    closed = series.theorem_s_series(alphas, order)
    pipeline = series.scaled_s_check(alphas, order)
    return {"power": np.arange(order + 1), "closed_form": closed, "pipeline": pipeline,
            "residual": np.abs(closed - pipeline)}


def run_series_check(cfg: AspectConfig, out_path) -> None:
    law = RadialLaw(cfg.alphas)
    write_table(out_path, series_residuals(law.alphas, SERIES_ORDER))


def run_verify(cfg: AspectConfig):
    """Full pipeline: sample, compare, and assemble a report dict.

    Returns (report, meta); the report is deterministic in (config, seed)
    at one BLAS thread count, the meta dict holds wall-clock per phase, the
    process's peak resident set size and the environment those digits
    depend on.
    """
    law = RadialLaw(cfg.alphas)  # rejects alpha = 1 before anything is sampled
    meta = {"timestamp": time.time(), "wall_clock_s": {}, "environment": environment()}

    t0 = time.perf_counter()
    eigs, moments = collect_sample(cfg, MOMENT_PMAX)
    meta["wall_clock_s"]["sampling"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    radial = stats.ks_radial(eigs, law, cfg.delta)
    angular = stats.ks_angular(eigs, cfg.delta)
    rows = stats.moment_rows(moments, law)
    resid = series_residuals(cfg.alphas, SERIES_ORDER)
    meta["wall_clock_s"]["analysis"] = time.perf_counter() - t0
    # ru_maxrss is in kilobytes on Linux
    meta["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    report = {
        "schema_version": SCHEMA_VERSION,
        "config": {**asdict(cfg), "alphas": cfg.alphas, "series_order": SERIES_ORDER},
        "support_radius": law.support_radius,
        "origin_eigenvalues": int(np.count_nonzero(eigs == 0)),
        "ks": [{**asdict(r), "pass": r.passed} for r in (radial, angular)],
        "moments": [asdict(r) for r in rows],
        "series_check": {
            "order": SERIES_ORDER,
            "max_residual": float(resid["residual"].max()),
        },
    }
    return report, meta


def write_verify(cfg: AspectConfig, out_path) -> None:
    """The sidecar is written first, so a report at `out_path` means the run finished."""
    report, meta = run_verify(cfg)
    report_path, sidecar = written_paths(out_path, verify=True)[:2]
    for path, obj in ((sidecar, meta), (report_path, report)):
        _replace(path, [json.dumps(obj, indent=2, sort_keys=True), "\n"])
