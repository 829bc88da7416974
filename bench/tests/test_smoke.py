"""``run.py --smoke``: every workload once at tiny size, end to end."""

import os
import subprocess
import sys
import time

from conftest import BENCH_DIR, ROOT
from workloads import WORKLOADS


def test_smoke_runs_every_workload_quickly():
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert [line.split()[0] for line in lines] == list(WORKLOADS)
    assert all(line.endswith("ok") for line in lines), proc.stdout
    # ~22 s on the 2-core sandbox; the margin is for a busy host.
    assert elapsed < 60.0, f"smoke pass took {elapsed:.1f}s"


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    """A directory holding only BENCHMARK.json and bench/: exit non-zero."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH_DIR, tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lockstep_sisc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
