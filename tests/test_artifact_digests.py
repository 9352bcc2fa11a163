import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_digests(threads="1") -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "artifact_digests.py"),
                           "--threads", threads], env=env, capture_output=True, text=True,
                          timeout=600)


def test_every_mode_reruns_byte_identically():
    first, second = run_digests(), run_digests()
    assert first.returncode == 0, first.stderr
    assert second.returncode == 0, second.stderr
    lines = first.stdout.splitlines()
    assert lines[0] == "threads 1"
    digests = [line.split() for line in lines[1:]]
    assert len(digests) == 20
    assert all(len(d) == 2 and len(d[1]) == 64 for d in digests)
    assert len({name for name, _ in digests}) == 20
    assert len({sha for _, sha in digests}) == 20
    assert second.stdout == first.stdout


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_thread_count_below_1_exits_2_with_one_line(threads):
    run = run_digests(threads)
    assert run.returncode == 2
    assert run.stdout == ""
    [line] = run.stderr.splitlines()
    assert line == f"artifact_digests: --threads must be >= 1, got {threads}"
