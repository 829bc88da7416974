"""The loader of the compiled Brusselator sweep.

``brusselator._load_kernel(cache, source)`` builds ``source`` with the
system ``cc`` into ``cache``, loads it, and uses it only if it sweeps
the probe batches bit for bit like ``_sweep_scalar``; anything else —
no ``cc``, a cache it cannot write, a failed compile or load, a failed
probe — gives back the scalar sweep, silently.  Every test here builds
into its own ``tmp_path``.
"""

import hashlib
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro.problems.brusselator as brusselator
from repro.problems.brusselator import BrusselatorProblem
from tests.test_brusselator_sweep_routes import (
    SWEEP_DIGESTS,
    lockstep_problem,
    seeded_buffer,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def library(status):
    """The library path a ``"compiled: <path>"`` status names."""
    assert status.startswith("compiled: "), status
    return Path(status.removeprefix("compiled: "))


def intact(path):
    """A cached library ends with the SHA-256 of the bytes before it."""
    data = path.read_bytes()
    return hashlib.sha256(data[:-32]).digest() == data[-32:]


@pytest.fixture(scope="module")
def has_cc():
    if shutil.which("cc") is None:
        pytest.skip("no cc on this host")


def test_without_cc_the_scalar_sweep_gives_the_same_digests(
    monkeypatch, tmp_path
):
    monkeypatch.setattr(shutil, "which", lambda *args, **kwargs: None)
    kernel = brusselator._load_kernel(tmp_path)
    assert kernel == (
        BrusselatorProblem._sweep_scalar,
        "python: no C compiler (cc) on PATH",
    )
    assert not any(tmp_path.iterdir())
    monkeypatch.setattr(brusselator, "_KERNEL", kernel)
    assert brusselator.kernel_status() == kernel[1]
    for n, want in SWEEP_DIGESTS.items():
        ext, skip = seeded_buffer(n)
        digest = hashlib.sha256()
        for array in lockstep_problem(n)._sweep_batched(ext, skip, 0)[:3]:
            digest.update(array.tobytes())
        assert digest.hexdigest() == want


#: Kernels that compile and run but are wrong, each in a way one probe
#: batch exposes: (what is wrong, source text, its replacement).
SABOTAGE = [
    ("damping ignored", "u = u - damping *", "u = u - 1.0 *"),
    ("verified steps free", "w += p ? p : 1;", "w += p;"),
    ("skip ignored", "active ? (int64_t)active[i] : i", "i"),
    ("regrouped", "c * (ul - two_u + ur)", "c * (ul + ur - two_u)"),
    ("first failure kept", "fail_count == 0 || k < fail_step", "!fail_count"),
]


@pytest.mark.parametrize(
    "old, new", [s[1:] for s in SABOTAGE], ids=[s[0] for s in SABOTAGE]
)
def test_a_kernel_that_fails_the_probe_is_not_used(has_cc, tmp_path, old, new):
    text = brusselator._KERNEL_SOURCE.read_text()
    assert text.count(old) == 1
    source = tmp_path / "sabotaged.c"
    source.write_text(text.replace(old, new))
    sweep, status = brusselator._load_kernel(tmp_path / "cache", source)
    assert sweep is BrusselatorProblem._sweep_scalar
    assert status.startswith("python: ") and status.endswith(
        " failed the probe"
    ), status


def test_a_source_that_does_not_compile_falls_back(has_cc, tmp_path):
    source = tmp_path / "broken.c"
    source.write_text("this is not C\n")
    sweep, status = brusselator._load_kernel(tmp_path / "cache", source)
    assert sweep is BrusselatorProblem._sweep_scalar
    assert status.startswith("python: cc failed: "), status
    # The failed build leaves no temporary file behind.
    assert not any((tmp_path / "cache").iterdir())


def test_a_truncated_or_foreign_library_is_rebuilt(has_cc, tmp_path):
    lib = library(brusselator._load_kernel(tmp_path)[1])
    good = lib.read_bytes()
    foreign = Path(sys.modules["_ctypes"].__file__).read_bytes()
    for damaged in (good[: len(good) // 2], foreign, b"", b"not a library"):
        # A new file renamed over the old one, as a build does (the old
        # inode stays mapped in this process).
        tmp = tmp_path / "damaged"
        tmp.write_bytes(damaged)
        os.replace(tmp, lib)
        assert brusselator._load_kernel(tmp_path)[1] == f"compiled: {lib}"
        assert intact(lib)
    assert sorted(tmp_path.iterdir()) == [lib]


def test_an_unwritable_cache_falls_back(has_cc, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    sweep, status = brusselator._load_kernel(blocker / "cache")
    assert sweep is BrusselatorProblem._sweep_scalar
    assert status.startswith("python: "), status


def test_concurrent_builds_leave_one_valid_library(has_cc, tmp_path):
    start = threading.Barrier(2)
    statuses = []

    def build():
        start.wait()
        statuses.append(brusselator._load_kernel(tmp_path)[1])

    threads = [threading.Thread(target=build) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(set(statuses)) == 1 and len(statuses) == 2
    lib = library(statuses[0])
    assert sorted(tmp_path.iterdir()) == [lib]
    assert intact(lib)


def test_import_builds_nothing_and_the_first_status_builds_in_home(
    has_cc, tmp_path
):
    script = """
import subprocess, sys
from pathlib import Path

popen = subprocess.Popen
def refuse(*args, **kwargs):
    raise AssertionError("a subprocess at import")
subprocess.Popen = refuse
import repro.problems.brusselator as brusselator
assert brusselator._KERNEL is None
assert not (Path.home() / ".cache").exists()
subprocess.Popen = popen
print(brusselator.kernel_status())
"""
    env = {**os.environ, "HOME": str(tmp_path), "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    lib = library(done.stdout.strip())
    assert lib.parent == tmp_path / ".cache" / "repro"
    assert lib.name.startswith("brusselator_sweep-") and intact(lib)
