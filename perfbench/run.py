"""haarprod benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--size full|toy]

Run from the root of a source checkout; the package is imported from
its `src/` directory.  Each workload is a closed loop in a fresh worker
process (one client, one op at a time) with BLAS/OpenMP threads pinned
to the CPUs this process may use.

--trace 0 prints the end-to-end metrics: set-up time of a fresh worker
(median of several), median op time, spectral points per second,
peak RSS and the share of ops that succeed.  --trace 1 prints per-layer
metrics from spans recorded around each haarprod module's public
functions, plus a second worker at one BLAS thread for thread gains.

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics; the line before it is a JSON detail record (per-op
times, environment, failed checks, diagnostics, layer shares).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 4  # plus the measuring worker's own set-up
RUN_BUDGET_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerError(RuntimeError):
    """A worker process failed or ran out of time."""


def run_worker(args, threads: int, extra: list[str], deadline: float) -> tuple[float, dict]:
    """Start a worker; return its set-up time (spawn to `ready`) and result.

    The worker is killed and waited for if it outlives `deadline`.
    """
    env = dict(os.environ, **{k: str(threads) for k in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"worker {' '.join(extra)} ran past the {RUN_BUDGET_S:.0f} s budget")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or first.strip() != "ready":
        raise WorkerError(f"worker exited with {proc.returncode} ({' '.join(cmd[2:])})")
    lines = out.strip().splitlines()
    return ready_s, (json.loads(lines[-1]) if lines else {})


def require_ops(result: dict, traced: bool | None = None) -> None:
    if not op_times(result, traced):
        raise WorkerError(f"no op completed (traced={traced}); see the worker's stderr")


def counts(result: dict) -> tuple[int, int]:
    """(attempted, failed) ops of a worker result, warm-up ops included."""
    ops = result["warmup"] + result["ops"]
    return len(ops), sum(1 for op in ops if op["failed_checks"])


def op_times(result: dict, traced: bool | None = None) -> list[float]:
    return [op["wall_s"] for op in result["ops"] if op["wall_s"] is not None
            and (traced is None or op["traced"] == traced)]


def end_to_end(result: dict, setup_samples: list[float]) -> dict:
    attempted, failed = counts(result)
    times = op_times(result)
    rates = [op["points"] / op["wall_s"] for op in result["ops"] if op["wall_s"]]
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "op_s": (statistics.median(times), "s"),
        "points_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "success_rate": (1.0 - failed / attempted, "ratio"),
    }


def _per_op(totals: dict, name: str, key: str, ops: int) -> float:
    return totals.get(name, {}).get(key, 0) / ops


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


GAIN_SPANS = ("haar.haar_unitary", "spectra.eigenvalues", "haar.trace_moment",
              "haar.product_chain")


def per_layer(pinned: dict, pinned_spans: list[dict], single: dict,
              single_spans: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics (per traced op) and the layer share table."""
    traced = op_times(pinned, traced=True)
    ops = len(traced)
    totals = spans.per_span_totals(pinned_spans)
    single_totals = spans.per_span_totals(single_spans)
    single_ops = len(op_times(single, traced=True))

    def per_op(name, key="self_s"):
        return _per_op(totals, name, key, ops)

    m = {}
    for name in ("haar.sample_ginibre", "haar.haar_unitary", "haar.trace_moment",
                 "spectra.eigenvalues", "limit_law.cdf_many"):
        m[f"{name}.calls"] = (per_op(name, "calls"), "count")
    for name in ("haar.sample_ginibre", "haar.haar_unitary", "haar.product_chain",
                 "haar.trace_moment", "spectra.eigenvalues", "limit_law.cdf_many",
                 "limit_law.exact_sample", "stats.ks_radial", "stats.ks_angular",
                 "stats.ks_radii_against_law", "stats.moment_rows",
                 "series.theorem_s_series", "series.scaled_s_check",
                 "pipeline.write_table", "pipeline.run_verify", "pipeline.write_verify",
                 "cli.main"):
        m[f"{name}.self_s"] = (per_op(name), "s")
    for name in ("haar.haar_unitary", "spectra.eigenvalues"):
        m[f"{name}.gflop_s"] = (_ratio(per_op(name, "flop"), per_op(name)) / 1e9, "GFLOP/s")
    chain = totals.get("haar.product_chain", {})
    m["haar.kept_column_ratio"] = (
        _ratio(chain.get("kept_columns", 0), chain.get("drawn_columns", 0)), "ratio")
    svd_calls = sum(entry.get("svd_calls", 0) for entry in totals.values())
    m["haar.svd_per_trial"] = (_ratio(svd_calls, chain.get("calls", 0)), "count")
    m["limit_law.cdf_many.points"] = (per_op("limit_law.cdf_many", "points"), "count")
    m["limit_law.exact_sample.draws"] = (per_op("limit_law.exact_sample", "draws"), "count")
    m["pipeline.write_table.rows"] = (per_op("pipeline.write_table", "rows"), "count")
    m["pipeline.write_table.bytes"] = (per_op("pipeline.write_table", "bytes"), "bytes")
    for name in GAIN_SPANS:
        one = _per_op(single_totals, name, "self_s", single_ops)
        m[f"{name}.thread_gain"] = (_ratio(one, per_op(name)), "ratio")

    all_wall = sum(op_times(pinned))
    all_cpu = sum(op["cpu_s"] for op in pinned["ops"] if op["cpu_s"] is not None)
    m["proc.cpu_util"] = (all_cpu / all_wall, "ratio")
    m["proc.trace_overhead"] = (
        statistics.median(traced) / statistics.median(op_times(pinned, traced=False)) - 1.0,
        "ratio")
    m["proc.blas_threads"] = (min(pinned["environment"]["blas_threads"].values(), default=0),
                              "count")

    self_by_layer = dict.fromkeys(spans.LAYERS, 0.0)
    for name, entry in totals.items():
        self_by_layer[name.split(".")[0]] += entry["self_s"]
    traced_wall = sum(traced)
    shares = {layer: t / traced_wall for layer, t in self_by_layer.items()}
    shares["unspanned"] = 1.0 - sum(shares.values())
    for layer in spans.LAYERS:
        m[f"share.{layer}"] = (shares[layer], "ratio")
    return m, shares


def source_record() -> dict:
    """Git revision (when the checkout is a repository) and a digest of src/."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=10,
                             capture_output=True, text=True)
        revision = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        revision = None
    return {"git_revision": revision, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="haarprod benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    args = parser.parse_args(argv)
    if not (SRC / "haarprod" / "cli.py").is_file():
        print(f"perfbench: no haarprod sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    nproc = len(os.sched_getaffinity(0))
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-{os.getpid()}"

    def measure(threads, trace, seconds, label):
        spans_path = out / f"spans-{tag}-{label}.jsonl"
        extra = ["--seconds", str(seconds), "--trace", trace,
                 "--workdir", str(out / f"work-{tag}-{label}")]
        if trace != "0":
            extra += ["--spans", str(spans_path)]
        ready_s, result = run_worker(args, threads, extra, deadline)
        return ready_s, result, (spans.load(spans_path) if trace != "0" else [])

    try:
        if args.trace == 0:
            setup = [run_worker(args, nproc, ["--probe", "--workdir", str(out)], deadline)[0]
                     for _ in range(SETUP_PROBES)]
            ready_s, result, _ = measure(nproc, "0", args.seconds, "e2e")
            require_ops(result)
            setup.append(ready_s)
            metrics, workers = end_to_end(result, setup), [result]
            extra_detail = {"setup_samples_s": setup}
        else:
            _, result, pinned_spans = measure(nproc, "alternate", args.seconds, "pinned")
            _, single, single_spans = measure(1, "1", args.seconds / 2, "single")
            for worker, traced in ((result, True), (result, False), (single, True)):
                require_ops(worker, traced)
            metrics, shares = per_layer(result, pinned_spans, single, single_spans)
            workers = [result, single]
            extra_detail = {"layer_shares": shares,
                            "single_thread_op_s": op_times(single)}
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(counts(w)[0] for w in workers)
    failed = sum(counts(w)[1] for w in workers)
    times = op_times(result)
    detail = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "nproc": nproc, "pinned_threads": nproc,
        "environment": result["environment"], **source_record(),
        "op_count": len(times), "op_s": times,
        "warmup_op_s": [op["wall_s"] for op in result["warmup"]],
        "op_s_quartiles": statistics.quantiles(times, n=4) if len(times) > 1 else times,
        "failed_checks": sorted({c for w in workers for op in w["warmup"] + w["ops"]
                                 for c in op["failed_checks"]}),
        "diagnostics": result["diagnostics"], **extra_detail,
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
