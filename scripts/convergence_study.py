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

Input that gives no valid run (a size that rounds m to 0, a ratio <= 1,
k < 1) exits with code 2 and one line on stderr before anything is
sampled, as the haarprod CLI does.
"""

import argparse
from dataclasses import replace

import numpy as np
from scipy.stats import beta

from haarprod import AspectConfig, ConfigError
from haarprod.limit_law import RadialLaw
from haarprod.pipeline import collect_sample
from haarprod.spectra import polar
from haarprod.stats import ks_angular, ks_radial


def expected_fraction_outside(m: int, n: int) -> float:
    """Expected share of k = 1 eigenvalues outside the limit support, m x m corner."""
    return float(np.mean(beta.sf(m / n, np.arange(1, m + 1), n - m)))


def studies(args) -> list[tuple[AspectConfig, RadialLaw]]:
    """One (config, law) per size; bad input raises ConfigError before any sampling."""
    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError:
        raise ConfigError(f"--sizes must be comma-separated integers, got {args.sizes!r}")
    if not args.ratio > 1:
        raise ConfigError(f"--ratio must be > 1, got {args.ratio!r}")
    out = []
    for n in sizes:
        dims = (round(n / args.ratio),) * (args.k + 1)
        try:
            cfg = AspectConfig(n=n, dims=dims, trials=args.trials)
            out.append((cfg, RadialLaw(cfg.alphas)))
        except ConfigError as exc:
            raise ConfigError(f"n={n} --ratio {args.ratio!r} --k {args.k}: {exc}")
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sizes", default="600,1200", help="comma-separated ambient sizes n")
    ap.add_argument("--ratio", type=float, default=2.0, help="aspect ratio n/m, > 1")
    ap.add_argument("--k", type=int, default=1, help="number of factors")
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args()
    try:
        runs = studies(args)
    except ConfigError as exc:
        ap.exit(2, f"convergence_study: {exc}\n")

    print("n,m,seed,radial_ks,angular_ks,expected_frac_outside,frac_outside,max_overshoot")
    for cfg, law in runs:
        n, m = cfg.n, cfg.dims[0]
        expected = expected_fraction_outside(m, n) if args.k == 1 else float("nan")
        for seed in range(args.seeds):
            eigs = collect_sample(replace(cfg, master_seed=seed))
            rad = ks_radial(eigs, law).statistic
            ang = ks_angular(eigs).statistic
            radii, _ = polar(eigs)
            frac = float(np.mean(radii > law.support_radius))
            over = float(radii.max() - law.support_radius)
            print(f"{n},{m},{seed},{rad:.5f},{ang:.5f},{expected:.5f},{frac:.5f},{over:.5f}")


if __name__ == "__main__":
    main()
