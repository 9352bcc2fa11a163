import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from haarprod import pipeline

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "convergence_study.py"
HEADER = "n,m,seed,radial_ks,angular_ks,expected_frac_outside,frac_outside,max_overshoot"
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_study(*flags):
    return subprocess.run([sys.executable, str(SCRIPT), *flags],
                          env=ENV, capture_output=True, text=True, timeout=300)


def test_smallest_study_prints_header_and_one_row():
    run = run_study("--sizes", "40", "--seeds", "1", "--trials", "2")
    assert run.returncode == 0, run.stderr
    header, *rows = run.stdout.splitlines()
    assert header == HEADER
    [row] = rows
    fields = row.split(",")
    assert fields[:3] == ["40", "20", "0"] and len(fields) == 8


@pytest.mark.parametrize("flags, named", [
    (["--sizes", "1"], "n=1"),
    (["--ratio", "1"], "1.0"),
    (["--ratio", "0.5"], "0.5"),
    (["--k", "0"], "--k 0"),
    (["--ratio", "0"], "0.0"),
    (["--sizes", ""], "''"),
    (["--ratio", "abc"], "'abc'"),
    (["--k", "x"], "'x'"),
    (["--seeds", "0"], "--seeds must be at least 1, got 0"),
    (["--seeds", "-1"], "--seeds must be at least 1, got -1"),
], ids=["size-1", "ratio-1", "ratio-half", "k-0", "ratio-0", "sizes-empty", "ratio-abc",
        "k-x", "seeds-0", "seeds-negative"])
def test_bad_input_exits_2_with_one_line(flags, named):
    # the case's flags come last, so they win over the defaults before them
    run = run_study("--seeds", "1", "--trials", "1", *flags)
    assert run.returncode == 2
    assert run.stdout == ""
    [line] = run.stderr.splitlines()
    assert line.startswith("convergence_study: config error: ") and named in line


def test_unallocatable_size_exits_2_with_one_line():
    # n = 5e17 and m = 1 pass the record's size check, but a factor's n x 1
    # draw (8 EB) is more than any machine can allocate
    run = run_study("--sizes", str(5 * 10**17), "--ratio", str(5 * 10**17),
                    "--seeds", "1", "--trials", "1")
    assert run.returncode == 2
    assert run.stdout.splitlines() == [HEADER]
    [line] = run.stderr.splitlines()
    assert line.startswith("convergence_study: config error: sizes too large for this machine: ")


def test_closed_stdout_exits_2_with_one_line():
    # 3000 rows are more than the pipe and stdout's buffer hold, so the
    # study is still writing when the reader goes away
    with subprocess.Popen([sys.executable, str(SCRIPT), "--sizes", "16", "--seeds", "3000",
                           "--trials", "1"], env=ENV, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        assert proc.stdout.readline() == HEADER + "\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=300) == 2
    assert err.splitlines() == ["convergence_study: cannot write output: [Errno 32] Broken pipe"]


def test_numerical_failure_exits_1_with_one_line(monkeypatch, capsys):
    # the fourth trial (seed 1, trial 1) overflows the unit disk
    real, calls = pipeline.eigenvalues, []

    def overflow_on_fourth_trial(b):
        eigs = real(b)
        calls.append(b.shape)
        if len(calls) == 4:
            eigs[0] = 1.1
        return eigs

    monkeypatch.setattr(pipeline, "eigenvalues", overflow_on_fourth_trial)
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--sizes", "16", "--seeds", "2",
                                      "--trials", "2"])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_path(str(SCRIPT), run_name="__main__")
    assert exit_.value.code == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line == ("convergence_study: numerical failure: eigenvalue radius 1.100e+00 "
                    "exceeds 1 beyond roundoff slack (seed=1 trial=1)")
