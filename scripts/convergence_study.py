#!/usr/bin/env python3
"""Convergence study: radial/angular KS of pooled spectra vs the limit law.

Runs the matrix pipeline at a ladder of sizes for several master seeds and
prints the KS distances, the fraction of eigenvalues outside the limiting
support, and the worst overshoot.  These are distances to the m -> infinity
law, so they include the finite-size gap (at least the edge mass, 0.023
at m = 600); the acceptance suite judges samples against the exact
finite-n law instead and checks that this gap shrinks with size.
"""

import argparse

import numpy as np

from haarprod import AspectConfig
from haarprod.limit_law import RadialLaw
from haarprod.pipeline import collect_sample
from haarprod.stats import ks_angular, ks_radial


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sizes", default="600,1200", help="comma-separated ambient sizes n")
    ap.add_argument("--ratio", type=float, default=2.0, help="aspect ratio n/m")
    ap.add_argument("--k", type=int, default=1, help="number of factors")
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args()

    sizes = [int(s) for s in args.sizes.split(",")]
    print("n,m,seed,radial_ks,angular_ks,frac_outside,max_overshoot")
    for n in sizes:
        m = round(n / args.ratio)
        cfg = AspectConfig(n=n, dims=(m,) * (args.k + 1))
        law = RadialLaw(cfg.alphas)
        for seed in range(args.seeds):
            sam = collect_sample(cfg, trials=args.trials, master_seed=seed)
            rad = ks_radial(sam, law).statistic
            ang = ks_angular(sam).statistic
            frac = float(np.mean(sam.radii > law.support_radius))
            over = float(sam.radii.max() - law.support_radius)
            print(f"{n},{m},{seed},{rad:.5f},{ang:.5f},{frac:.5f},{over:.5f}")


if __name__ == "__main__":
    main()
