"""The benchmark's workloads: one op each, sized inputs, output checks.

An op calls the program only through `haarprod.cli.main` and the public
functions of `limit_law` and `stats`.  Its time covers those calls and
nothing the benchmark does around them (parsing tables, checking).
Every check compares an output with a reference from `reference.py`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref


class OpFailed(RuntimeError):
    """The program returned a nonzero exit code."""


@dataclass
class Op:
    """Result of one op: timed wall and CPU seconds, points, outputs."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    points: int = 0
    outputs: dict = field(default_factory=dict)

    def timed(self, fn, *args):
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            return fn(*args)
        finally:
            self.wall_s += time.perf_counter() - w0
            self.cpu_s += time.process_time() - c0

    def cli(self, cli, argv):
        rc = self.timed(cli.main, argv)
        if rc != 0:
            raise OpFailed(f"haarprod {' '.join(argv)} exited with {rc}")


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    value: float
    limit: float


def _read_table(path: Path, columns):
    """Header and the named float columns of a haarprod CSV table."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
    idx = [header.index(c) for c in columns]
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=idx, ndmin=2)
    return header, data


class VerifyK1:
    """`haarprod verify` on the README example shape (k = 1, alpha = 2)."""

    name = "verify-k1"
    why = ("README verify example; sampling (QR, eigvals, 3 SVDs) is about 99% of it, "
           "so haar, spectra and trace_moment changes show here")
    sizes = {"full": {"n": 1200, "m": 600, "trials": 1},
             "toy": {"n": 16, "m": 8, "trials": 2}}

    def __init__(self, size: str):
        vars(self).update(self.sizes[size])

    def argv(self, seed: int, out: Path) -> list[str]:
        return ["verify", "--n", str(self.n), "--dims", f"{self.m},{self.m}",
                "--trials", str(self.trials), "--seed", str(seed), "--out", str(out)]

    def run(self, cli, modules, seed: int, workdir: Path) -> Op:
        op = Op(points=self.trials * self.m)
        out = workdir / "verify_report.json"
        op.cli(cli, self.argv(seed, out))
        op.outputs = {"seed": seed, "report_bytes": out.read_bytes()}
        return op

    def check(self, op: Op) -> tuple[list[Check], dict]:
        report = json.loads(op.outputs["report_bytes"])
        ks = {r["label"]: r for r in report["ks"]}
        angular = ks["angular"]
        size = self.trials * self.m - report["origin_eigenvalues"]
        mean, sd = ref.corner_trace_moment(self.n, self.m, self.m)
        moment = next(r for r in report["moments"] if r["p"] == 1)
        limit = ref.MOMENT_SIGMAS * sd / np.sqrt(self.trials)
        checks = [
            Check("angular_ks", angular["statistic"] <= ref.dkw_threshold(size),
                  angular["statistic"], ref.dkw_threshold(size)),
            Check("angular_sample_size", angular["sample_size"] == size,
                  angular["sample_size"], size),
            Check("trace_moment_p1", abs(moment["empirical_mean"] - mean) <= limit,
                  abs(moment["empirical_mean"] - mean), limit),
            Check("series_max_residual",
                  report["series_check"]["max_residual"] <= ref.SERIES_TOLERANCE,
                  report["series_check"]["max_residual"], ref.SERIES_TOLERANCE),
        ]
        # Finite-size bias of the limit law keeps this above its DKW
        # threshold at m = 600; it is recorded, never gated.
        diagnostics = {"radial_ks": ks["radial"]["statistic"],
                       "radial_dkw_threshold": ks["radial"]["dkw_threshold"]}
        return checks, diagnostics

    def rerun_check(self, cli, op: Op, workdir: Path) -> Check:
        """Re-run the op's seed outside the timed loop; the report must match."""
        out = workdir / "verify_rerun.json"
        rc = cli.main(self.argv(op.outputs["seed"], out))
        same = rc == 0 and out.read_bytes() == op.outputs["report_bytes"]
        return Check("verify_byte_identical_rerun", same, float(same), 1.0)


class EigsK2:
    """`haarprod sample-eigs` on the criterion-5 shape (k = 2, alphas 2 and 1.5)."""

    name = "eigs-k2"
    why = ("criterion-5 shape: two QRs, the only product matmul and m=900 eigvals, "
           "no SVD step, so an SVD-only change must not move it")
    sizes = {"full": {"n": 1800, "dims": (900, 1200, 900), "trials": 1},
             "toy": {"n": 16, "dims": (8, 12, 8), "trials": 2}}

    def __init__(self, size: str):
        vars(self).update(self.sizes[size])

    def argv(self, seed: int, out: Path) -> list[str]:
        return ["sample-eigs", "--n", str(self.n), "--dims", ",".join(map(str, self.dims)),
                "--trials", str(self.trials), "--seed", str(seed), "--out", str(out)]

    def run(self, cli, modules, seed: int, workdir: Path) -> Op:
        op = Op(points=self.trials * self.dims[0])
        out = workdir / "eigs.csv"
        op.cli(cli, self.argv(seed, out))
        op.outputs = {"table": out}
        return op

    def check(self, op: Op) -> tuple[list[Check], dict]:
        rows = self.trials * self.dims[0]
        header, data = _read_table(op.outputs["table"], ("re", "im", "radius", "angle"))
        re, im, radius, angle = data.T
        modulus_error = float(np.max(np.abs(np.hypot(re, im) - radius)))
        angles = angle[radius > 0]
        stat = ref.ks_distance(angles, ref.uniform_angle_cdf)
        checks = [
            Check("eigs_header", header == ["trial", "re", "im", "radius", "angle"], 0.0, 0.0),
            Check("eigs_rows", len(data) == rows, len(data), rows),
            Check("eigs_radius_le_1", float(radius.max()) <= 1.0, float(radius.max()), 1.0),
            Check("eigs_radius_is_modulus", modulus_error <= 1e-8, modulus_error, 1e-8),
            Check("eigs_angular_ks", stat <= ref.dkw_threshold(len(angles)),
                  stat, ref.dkw_threshold(len(angles))),
        ]
        return checks, {}

    rerun_check = None


class LawTables:
    """The matrix-free law path: exact draws, unequal-alpha CDF table, KS."""

    name = "law-tables"
    why = ("matrix-free law path with no LAPACK: exact-sample, unequal-alpha analytic-cdf "
           "and KS of exact radii, so limit_law, stats and write_table changes show here")
    # exact-sample draws trials * dims[0] points of the k = 2, alpha = 2 law;
    # analytic-cdf tabulates the law with alphas (2, 1.5).
    sizes = {"full": {"exact_n": 2000, "exact_dims": (1000, 1000, 1000), "draw_trials": 100,
                      "cdf_n": 1200, "cdf_dims": (600, 800, 600), "grid": 100_000,
                      "radii": 100_000},
             "toy": {"exact_n": 16, "exact_dims": (8, 8, 8), "draw_trials": 4,
                     "cdf_n": 12, "cdf_dims": (6, 8, 6), "grid": 16, "radii": 64}}
    alpha, k = 2.0, 2

    def __init__(self, size: str):
        vars(self).update(self.sizes[size])

    def argv(self, seed: int, out: Path) -> list[str]:
        """The op's first command, exact-sample."""
        return ["exact-sample", "--n", str(self.exact_n),
                "--dims", ",".join(map(str, self.exact_dims)),
                "--trials", str(self.draw_trials), "--seed", str(seed), "--out", str(out)]

    def run(self, cli, modules, seed: int, workdir: Path) -> Op:
        limit_law, stats = modules["limit_law"], modules["stats"]
        draws = self.draw_trials * self.exact_dims[0]
        op = Op(points=draws + self.grid + self.radii)
        exact, cdf = workdir / "exact_sample.csv", workdir / "cdf.csv"
        op.cli(cli, self.argv(seed, exact))
        op.cli(cli, ["analytic-cdf", "--n", str(self.cdf_n),
                     "--dims", ",".join(map(str, self.cdf_dims)),
                     "--grid", str(self.grid), "--out", str(cdf)])
        rng = np.random.default_rng([seed, 1])
        law = limit_law.RadialLaw((self.alpha,) * self.k)

        def ks_of_exact_radii():
            radii = np.abs(limit_law.exact_sample(self.alpha, self.k, self.radii, rng))
            return radii, stats.ks_radii_against_law(radii, law, delta=0.001)

        radii, report = op.timed(ks_of_exact_radii)
        op.outputs = {"exact": exact, "cdf": cdf, "draws": draws,
                      "radii": radii, "ks": report}
        return op

    def check(self, op: Op) -> tuple[list[Check], dict]:
        law_cdf = ref.equal_alpha_cdf(self.alpha, self.k)
        header, data = _read_table(op.outputs["exact"], ("radius",))
        draws = op.outputs["draws"]
        exact_ks = ref.ks_distance(data[:, 0], law_cdf)
        cdf_header, cdf = _read_table(op.outputs["cdf"], ("t", "cdf"))
        f = cdf[:, 1]
        radii, report = op.outputs["radii"], op.outputs["ks"]
        own_ks = ref.ks_distance(radii, law_cdf)
        steps = np.diff(f)
        checks = [
            Check("exact_header", header == ["index", "re", "im", "radius", "angle"], 0.0, 0.0),
            Check("exact_rows", len(data) == draws, len(data), draws),
            Check("exact_radii_ks", exact_ks <= ref.dkw_threshold(draws),
                  exact_ks, ref.dkw_threshold(draws)),
            Check("cdf_header", cdf_header == ["t", "cdf"], 0.0, 0.0),
            Check("cdf_rows", len(f) == self.grid, len(f), self.grid),
            Check("cdf_monotone", bool(np.all(steps >= 0.0)), float(steps.min()), 0.0),
            Check("cdf_ends_at_1", f[-1] == 1.0 and f[0] == 0.0, float(f[-1]), 1.0),
            Check("ks_sample_size", report.sample_size == self.radii,
                  report.sample_size, self.radii),
            Check("ks_matches_closed_form", abs(report.statistic - own_ks) <= ref.KS_AGREEMENT,
                  abs(report.statistic - own_ks), ref.KS_AGREEMENT),
            Check("ks_within_dkw", report.statistic <= ref.dkw_threshold(self.radii),
                  report.statistic, ref.dkw_threshold(self.radii)),
        ]
        return checks, {"exact_radii_ks": exact_ks, "ks_radii_against_law": report.statistic}

    rerun_check = None


WORKLOADS = {w.name: w for w in (VerifyK1, EigsK2, LawTables)}
