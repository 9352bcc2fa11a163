"""One workload process: set up, run ops in a closed loop, check outputs.

    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR
        [--seconds S] [--size full|toy] [--trace 0|1|alternate] [--spans PATH] [--probe]

The process prints `ready` on its first stdout line once set-up is done
(numpy, scipy and haarprod.cli imported, the BLAS pool started, the op's
config parsed).  With --probe it exits there.  Otherwise it runs ops one
at a time until their summed time reaches --seconds and prints one JSON
line with every op's time, points, failed checks and diagnostics.  BLAS
threads are pinned by the caller through the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# The package is imported from the checkout, never from an installed copy.
sys.path[:0] = [str(SRC), str(HERE)]

from spans import SpanRecorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# Ops run before timing starts: the first op of a process pays for first
# writes of its output files and first allocations of its array sizes.
WARMUP_OPS = 1


def op_seed(seed: int, index: int) -> int:
    """Master seed of op `index` in a run with workload seed `seed`."""
    return seed * 1_000_003 + index


def set_up(workload_cls, size: str, seed: int):
    """Everything a fresh workload process does before its first op."""
    import numpy as np
    import scipy.linalg  # noqa: F401

    from haarprod import cli, haar, limit_law, pipeline, series, stats

    if Path(cli.__file__).resolve().parent != SRC / "haarprod":
        raise RuntimeError(f"haarprod imported from {cli.__file__}, not from {SRC}")
    np.linalg.qr(np.ones((64, 64), dtype=complex))  # loads LAPACK, starts the BLAS pool
    workload = workload_cls(size)
    cli.load_config(cli.build_parser().parse_args(workload.argv(op_seed(seed, 0), Path("x"))))
    modules = {"cli": cli, "haar": haar, "limit_law": limit_law, "pipeline": pipeline,
               "series": series, "stats": stats,
               "numpy.linalg": np.linalg, "scipy.linalg": scipy.linalg}
    return workload, modules


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, by library file name."""
    import ctypes

    with open("/proc/self/maps", "r", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    counts = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                counts[Path(path).name] = getter()
                break
    return counts


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "threads_env": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_threads": blas_threads(),
    }


def run_ops(workload, modules, seed: int, seconds: float, trace: str, workdir: Path,
            spans_path: Path | None = None) -> dict:
    """Closed loop of ops; returns the per-op record the orchestrator reads.

    The first WARMUP_OPS ops are checked but neither timed nor traced;
    they come back under "warmup".  trace "0" records no spans, "1"
    records every timed op, "alternate" records odd ops only so traced
    and untraced ops share one process.
    """
    recorder = SpanRecorder(modules) if trace != "0" else None
    if recorder is not None:
        recorder.install()  # raises MissingTargetError before any op runs
    workdir.mkdir(parents=True, exist_ok=True)
    ops, diagnostics, first, spent = [], [], None, 0.0
    min_ops = 2 if trace == "alternate" else 1
    try:
        while spent < seconds or len(ops) < WARMUP_OPS + min_ops:
            index = len(ops)
            warmup = index < WARMUP_OPS
            traced = not warmup and (trace == "1" or
                                     (trace == "alternate" and index % 2 == 1))
            record = {"index": index, "warmup": warmup, "traced": traced, "wall_s": None,
                      "cpu_s": None, "points": 0, "failed_checks": []}
            ops.append(record)
            if recorder is not None:
                recorder.op = index if traced else None
            start = time.perf_counter()
            try:
                op = workload.run(modules["cli"], modules, op_seed(seed, index), workdir)
            except Exception as exc:  # an op that raises is a failed op; keep measuring
                traceback.print_exc(file=sys.stderr)
                record["failed_checks"].append(f"exception: {type(exc).__name__}")
                if len(ops) >= 3 and all(o["failed_checks"] for o in ops):
                    break  # every op fails: stop, the result reports it
                continue
            finally:
                if not warmup:
                    spent += time.perf_counter() - start
                if recorder is not None:
                    recorder.op = None
            record.update(wall_s=op.wall_s, cpu_s=op.cpu_s, points=op.points)
            try:
                checks, diag = workload.check(op)
            except Exception as exc:  # unreadable output fails its checks
                traceback.print_exc(file=sys.stderr)
                checks, diag = [], {}
                record["failed_checks"].append(f"check raised: {type(exc).__name__}")
            record["failed_checks"] += [f"{c.name} ({c.value:.6g} vs limit {c.limit:.6g})"
                                        for c in checks if not c.passed]
            diagnostics.append(diag)
            if first is None and not record["failed_checks"]:
                first = (record, op)
        if workload.rerun_check is not None and first is not None:
            check = workload.rerun_check(modules["cli"], first[1], workdir)
            if not check.passed:
                first[0]["failed_checks"].append(check.name)
    finally:
        if recorder is not None:
            recorder.uninstall()
            if spans_path is not None:
                recorder.dump(spans_path)
    return {"ops": [o for o in ops if not o["warmup"]],
            "warmup": [o for o in ops if o["warmup"]],
            "diagnostics": _median_diagnostics(diagnostics),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def _median_diagnostics(rows: list[dict]) -> dict:
    keys = sorted({k for row in rows for k in row})
    return {k: statistics.median(row[k] for row in rows if k in row) for k in keys}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    parser.add_argument("--trace", choices=("0", "1", "alternate"), default="0")
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    workload, modules = set_up(WORKLOADS[args.workload], args.size, args.seed)
    print("ready", flush=True)
    if args.probe:
        return 0
    try:
        result = run_ops(workload, modules, args.seed, args.seconds, args.trace,
                         args.workdir, args.spans)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    result["environment"] = environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
