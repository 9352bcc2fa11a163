import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_smallest_study_prints_header_and_one_row():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "convergence_study.py"),
                          "--sizes", "40", "--seeds", "1", "--trials", "2"],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    header, *rows = run.stdout.splitlines()
    assert header == ("n,m,seed,radial_ks,angular_ks,expected_frac_outside,"
                      "frac_outside,max_overshoot")
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
], ids=["size-1", "ratio-1", "ratio-half", "k-0", "ratio-0", "sizes-empty"])
def test_bad_input_exits_2_with_one_line(flags, named):
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "convergence_study.py"),
                          *flags, "--seeds", "1", "--trials", "1"],
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 2
    assert run.stdout == ""
    [line] = run.stderr.splitlines()
    assert line.startswith("convergence_study: ") and named in line
