#!/usr/bin/env python3
"""Edge-overshoot pilot for single-factor truncations (k = 1).

At finite m, part of the spectrum sits outside the limiting support
radius 1/sqrt(alpha).  For the m x m corner of an n x n Haar unitary the
squared eigenvalue moduli form a determinantal radial family distributed
like independent Beta(j, n - m), j = 1..m (Zyczkowski & Sommers 2000), so
the *expected* mass outside the limit support is available in closed
form.  This script prints that expectation next to a Monte-Carlo
measurement; the expected fraction decays only like ~1/sqrt(m), which is
what bounds the achievable pooled KS distance at desk scale.
"""

import argparse

import numpy as np
from scipy.stats import beta

from haarprod import AspectConfig
from haarprod.limit_law import RadialLaw
from haarprod.pipeline import collect_sample


def expected_fraction_outside(m: int, n: int) -> float:
    t2 = m / n  # squared support radius 1/alpha
    return float(np.mean([beta.sf(t2, j, n - m) for j in range(1, m + 1)]))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sizes", default="150,300,600,1200", help="corner sizes m")
    ap.add_argument("--ratio", type=float, default=2.0, help="aspect ratio n/m")
    ap.add_argument("--trials", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print("m,n,expected_frac_outside,measured_frac_outside,max_overshoot")
    for m in (int(s) for s in args.sizes.split(",")):
        n = round(m * args.ratio)
        cfg = AspectConfig(n=n, dims=(m, m))
        law = RadialLaw(cfg.alphas)
        sam = collect_sample(cfg, trials=args.trials, master_seed=args.seed)
        measured = float(np.mean(sam.radii > law.support_radius))
        over = float(sam.radii.max() - law.support_radius)
        print(f"{m},{n},{expected_fraction_outside(m, n):.5f},{measured:.5f},{over:.5f}")


if __name__ == "__main__":
    main()
