#!/usr/bin/env python3
"""sha256 of the CLI's artifacts for 20 fixed (config, seed) runs.

    PYTHONPATH=src python3 scripts/artifact_digests.py [--threads T]

Each run goes through `haarprod.cli.main` into a temporary directory.
The first output line is the BLAS thread count, pinned through
OPENBLAS_NUM_THREADS and OMP_NUM_THREADS before numpy is imported; each
following line is `name sha256` for one artifact (for `verify`, the
report, not its `.meta.json` timing sidecar).  `haarprod` is imported
from PYTHONPATH, so pointing it at two checkouts in turn and diffing the
outputs shows whether a change kept every artifact byte-identical.
Digests are comparable only on one machine at one thread count: the
BLAS reduction order, and so the last digits of the eigenvalues, depend
on both.

The `sample-eigs-*` and `verify-*` runs draw Haar matrices, so any
change to the Ginibre stream or the QR moves their digests.  The
`analytic-cdf-*`, `exact-sample-*` and `series-check-*` runs are
matrix-free: a sampler change must leave them byte-identical.  Only the
`verify-*` runs (analytic moments and series residual) and the
`series-check-*` runs read `haarprod.series`, so a series change may
move only those.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

CONFIG_FILE = {"n": 40, "dims": [20, 20], "trials": 2, "master_seed": 12,
               "delta": 0.01, "grid_points": 32}

RUNS = [
    ("sample-eigs-n16-8.8", "sample-eigs --n 16 --dims 8,8 --trials 3 --seed 5"),
    ("sample-eigs-n16-8.12.8", "sample-eigs --n 16 --dims 8,12,8 --trials 3 --seed 6"),
    ("sample-eigs-n12-12.12", "sample-eigs --n 12 --dims 12,12 --trials 2 --seed 7"),
    ("sample-eigs-n60-30.40.50.30",
     "sample-eigs --n 60 --dims 30,40,50,30 --trials 2 --seed 11"),
    ("verify-n80-40.40", "verify --n 80 --dims 40,40 --trials 3 --seed 3"),
    ("verify-n40-20.30.20", "verify --n 40 --dims 20,30,20 --trials 3 --seed 4"),
    ("verify-n400-200.200", "verify --n 400 --dims 200,200 --trials 2 --seed 7"),
    ("analytic-cdf-n8-4.4", "analytic-cdf --n 8 --dims 4,4 --grid 64"),
    ("analytic-cdf-n12-6.8.6", "analytic-cdf --n 12 --dims 6,8,6 --grid 64"),
    ("exact-sample-n8-4.4.4", "exact-sample --n 8 --dims 4,4,4 --trials 10 --seed 2"),
    ("exact-sample-n8-8.8", "exact-sample --n 8 --dims 8,8 --trials 10 --seed 1"),
    ("series-check-n8-4.4.4", "series-check --n 8 --dims 4,4,4"),
    ("series-check-n12-6.8.6", "series-check --n 12 --dims 6,8,6"),
    ("verify-config", "verify --config {config}"),
    ("verify-config-overridden", "verify --config {config} --n 48 --dims 24,24 "
     "--trials 3 --seed 13 --delta 0.05 --grid 16"),
    # middle dims not in descending order, so the alphas are not sorted
    ("analytic-cdf-n12-6.8.7.6", "analytic-cdf --n 12 --dims 6,8,7,6 --grid 64"),
    ("verify-n24-12.16.14.12", "verify --n 24 --dims 12,16,14,12 --trials 2 --seed 3"),
    # one trial: the standard errors and z-scores are undefined
    ("verify-n16-8.8-one-trial", "verify --n 16 --dims 8,8 --trials 1 --seed 2"),
    # equal alphas at k = 3: the one pdf column from a multi-factor inversion (~t^(-1/3) at 0)
    ("analytic-cdf-n12-6.6.6.6", "analytic-cdf --n 12 --dims 6,6,6,6 --grid 64"),
    # k = 2 above LAPACK's block crossover: the blocked geqrf/ungqr path and the
    # compact copy of factor 0's kept block
    ("sample-eigs-n300-150.200.150",
     "sample-eigs --n 300 --dims 150,200,150 --trials 2 --seed 9"),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--threads", type=int, default=1, help="BLAS threads (default 1)")
    args = ap.parse_args()
    if args.threads < 1:  # checked before the pin, so no BLAS is set to it
        ap.exit(2, f"artifact_digests: --threads must be >= 1, got {args.threads}\n")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = str(args.threads)

    from haarprod.cli import main as haarprod_main  # numpy loads here, after the pin

    print(f"threads {args.threads}")
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "cfg.json"
        config.write_text(json.dumps(CONFIG_FILE), encoding="utf-8")
        for name, command in RUNS:
            out = Path(tmp) / name
            argv = command.format(config=config).split() + ["--out", str(out)]
            if haarprod_main(argv) != 0:
                print(f"{name}: exit status nonzero", file=sys.stderr)
                return 1
            print(name, hashlib.sha256(out.read_bytes()).hexdigest())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
