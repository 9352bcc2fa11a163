"""Smoke test of the benchmark at toy sizes; no timing is gated.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                 "--trace", str(trace), "--size", "toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_workloads_match_benchmark_json():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: cls.why for name, cls in WORKLOADS.items()}


def test_wrong_reference_counts_as_failed_op(tmp_path, monkeypatch):
    exact = reference.corner_trace_moment
    monkeypatch.setattr(reference, "corner_trace_moment",
                        lambda n, p, q: (exact(n, p, q)[0] + 1.0, exact(n, p, q)[1]))
    workload, modules = worker.set_up(WORKLOADS["verify-k1"], "toy", seed=3)
    result = worker.run_ops(workload, modules, 3, 0.0, "0", tmp_path / "work")
    for op in result["warmup"] + result["ops"]:
        [failure] = op["failed_checks"]
        assert failure.startswith("trace_moment_p1 ")
    assert run.counts(result) == (2, 2)  # the warm-up op and the timed op
    assert run.end_to_end(result, [1.0])["success_rate"][0] == 0.0


def test_missing_span_target_fails_loudly(monkeypatch):
    _, modules = worker.set_up(WORKLOADS["law-tables"], "toy", seed=3)
    monkeypatch.delattr(modules["stats"], "ks_radial")
    with pytest.raises(spans.MissingTargetError, match="haarprod.stats.ks_radial"):
        spans.SpanRecorder(modules).install()


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "verify-k1", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
