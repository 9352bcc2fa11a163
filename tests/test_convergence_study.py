import os
import subprocess
import sys
from pathlib import Path

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
