import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_digests() -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "artifact_digests.py"),
                           "--threads", "1"], env=env, capture_output=True, text=True,
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
