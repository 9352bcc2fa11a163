#!/usr/bin/env python3
"""Convergence study: radial/angular KS of pooled spectra vs the limit law.

Runs the matrix pipeline at a ladder of sizes for several master seeds and
prints the KS distances, the fraction of eigenvalues outside the limiting
support, and the worst overshoot.  These are distances to the m -> infinity
law, so they include the finite-size gap (at least the edge mass, 0.023
at m = 600); the acceptance suite judges samples against the exact
finite-n law instead and checks that this gap shrinks with size.

For one factor (k = 1) the expected fraction outside is printed too.  The
squared eigenvalue moduli of the m x m corner of an n x n Haar unitary
are, as a set, independent Beta(j, n - m), j = 1..m (Zyczkowski & Sommers
2000), so the expected mass outside the squared support radius m/n is the
mean over j of the Beta survival functions.  It decays only like
~1/sqrt(m), which is what bounds the achievable pooled KS distance at desk
scale.  For k > 1 that column is nan.

A flag that does not parse, a size that rounds m to 0, a ratio <= 1, k < 1 or
seeds < 1 is rejected before any sampling; exit codes come from `haarprod.cli.exit_code`.
"""

from dataclasses import replace

import numpy as np
from scipy.special import betaincc

from haarprod import AspectConfig, ConfigError
from haarprod.cli import _Parser, exit_code
from haarprod.limit_law import RadialLaw
from haarprod.pipeline import collect_sample
from haarprod.stats import ks_angular, ks_radial, polar


def expected_fraction_outside(m: int, n: int) -> float:
    """Expected share of k = 1 eigenvalues outside the limit support, m x m corner."""
    return float(np.mean(betaincc(np.arange(1, m + 1), n - m, m / n)))


def comma_ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",")]


def studies(args) -> list[tuple[AspectConfig, RadialLaw]]:
    """One (config, law) per size; bad input raises ConfigError before any sampling."""
    if not args.ratio > 1:
        raise ConfigError(f"--ratio must be > 1, got {args.ratio!r}")
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be at least 1, got {args.seeds}")
    out = []
    for n in args.sizes:
        m = round(n / args.ratio)
        if not (1 <= m < n and args.k >= 1):  # so that every alpha = n / m is > 1
            raise ConfigError(f"n={n} --ratio {args.ratio!r} --k {args.k}: "
                              f"needs k >= 1 and a corner size m = {m} in [1, n)")
        cfg = AspectConfig(n=n, dims=(m,) * (args.k + 1), trials=args.trials)
        out.append((cfg, RadialLaw(cfg.alphas)))
    return out


def main():
    ap = _Parser()  # the CLI's parser: a flag that does not parse is one ConfigError
    ap.add_argument("--sizes", type=comma_ints, default="600,1200",
                    help="comma-separated ambient sizes n")
    ap.add_argument("--ratio", type=float, default=2.0, help="aspect ratio n/m, > 1")
    ap.add_argument("--k", type=int, default=1, help="number of factors")
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args()
    runs = studies(args)
    print("n,m,seed,radial_ks,angular_ks,expected_frac_outside,frac_outside,max_overshoot")
    for cfg, law in runs:
        n, m = cfg.n, cfg.dims[0]
        expected = expected_fraction_outside(m, n) if args.k == 1 else float("nan")
        for seed in range(args.seeds):
            eigs, _ = collect_sample(replace(cfg, master_seed=seed))
            rad = ks_radial(eigs, law).statistic
            ang = ks_angular(eigs).statistic
            radii, _ = polar(eigs)
            frac = float(np.mean(radii > law.support_radius))
            over = float(radii.max() - law.support_radius)
            print(f"{n},{m},{seed},{rad:.5f},{ang:.5f},{expected:.5f},{frac:.5f},{over:.5f}")


if __name__ == "__main__":
    raise SystemExit(exit_code("convergence_study", main))
