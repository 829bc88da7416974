"""The loader of the compiled sweeps, and what the module accepts.

``_compiled._load_kernel(cache, source)`` builds ``source`` with the
system ``cc`` into ``cache``, loads it as an extension module, and uses
it only if the Brusselator, heat and synthetic sweeps each reproduce
their Python paths bit for bit on the probe cases and the lockstep round
books its cases to the frozen digests of its NumPy oracle; anything
else — no ``cc``, no ``Python.h``, a cache it cannot write, a failed or
hung compile, a failed load or probe — gives back ``None``, every
sweep's Python path, silently.  Every test here builds into its own
``tmp_path``.
"""

import hashlib
import os
import shutil
import subprocess
import sys
import sysconfig
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.problems import _compiled
from repro.problems.brusselator import BrusselatorProblem
from tests import oracles
from tests.conftest import compiled_kernel, use_kernel
from tests.test_brusselator_sweep_routes import (
    SWEEP_DIGESTS,
    lockstep_problem,
    seeded_buffer,
    sweep_block,
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
    kernel = _compiled._load_kernel(tmp_path)
    assert kernel == (None, "python: no C compiler (cc) on PATH")
    assert not any(tmp_path.iterdir())
    use_kernel(monkeypatch, kernel)
    assert _compiled.kernel_status() == kernel[1]
    for n, want in SWEEP_DIGESTS.items():
        ext, skip = seeded_buffer(n)
        digest = hashlib.sha256()
        for array in sweep_block(lockstep_problem(n), ext, skip)[:3]:
            digest.update(array.tobytes())
        assert digest.hexdigest() == want


#: Modules that compile and run but are wrong, each in a way one probe
#: case exposes: (what is wrong, the kernel whose probe fails, source
#: text, its replacement).  The ``skip:`` ones each drop one clause of
#: the Brusselator's skip test, or what a skip reports; the ``round:``
#: ones each break one rule of the lockstep round.
SABOTAGE = [
    ("damping ignored", "brusselator", "u = u - damping *", "u = u - 1.0 *"),
    ("verified steps free", "brusselator", "w += p ? p : 1;", "w += p;"),
    (
        "skip: own residual ignored",
        "brusselator",
        "&& prev_res[j] < threshold\n",
        "\n",
    ),
    (
        "skip: left neighbour ignored",
        "brusselator",
        "j ? prev_res[j - 1] < threshold : left_quiet",
        "j ? 1 : left_quiet",
    ),
    (
        "skip: right neighbour ignored",
        "brusselator",
        "j + 1 < n ? prev_res[j + 1] < threshold : right_quiet",
        "j + 1 < n ? 1 : right_quiet",
    ),
    ("skip: left halo always quiet", "brusselator", ": left_quiet)", ": 1)"),
    ("skip: right halo always quiet", "brusselator", ": right_quiet)", ": 1)"),
    ("skip: no refresh", "brusselator", "&& streak[j] < period", ""),
    ("skip: kept residual not in the max", "brusselator", "if (kept > top)", "if (0)"),
    (
        "skip: streak not carried",
        "brusselator",
        "next[j] = streak[j] + 1.0;",
        "next[j] = 1.0;",
    ),
    (
        "regrouped",
        "brusselator",
        "c * (ul - two_u + ur)",
        "c * (ul + ur - two_u)",
    ),
    (
        "first failure kept",
        "brusselator",
        "fail_count == 0 || k < fail_step",
        "!fail_count",
    ),
    (
        "heat update regrouped",
        "heat",
        "(x + c_dt * (lt[k] + rt[k])) / denom",
        "(x + c_dt * lt[k] + c_dt * rt[k]) / denom",
    ),
    (
        "work summed left to right",
        "synthetic",
        "const double total = pairwise_sum(",
        "const double total = left_to_right(",
    ),
    ("no halving above 128", "synthetic", "if (n <= 128) {", "if (1) {"),
    (
        "round: ties sorted unstably",
        "lockstep_round",
        "sorts_before(keys, n_keys, idx[j], idx[i])",
        "!sorts_before(keys, n_keys, idx[i], idx[j])",
    ),
    (
        "round: a halo on its receiver's end late only after its mid",
        "lockstep_round",
        "t_sent >= t_mid",
        "t_sent > t_mid",
    ),
    (
        "round: one resume per halo at one instant",
        "lockstep_round",
        " - (late_l && late_r && same)",
        "",
    ),
    (
        "round: suffix by the new streak",
        "lockstep_round",
        "streak[order[tail - 1]] >= persistence",
        "next[order[tail - 1]] >= persistence",
    ),
    (
        "round: NaN dropped by the max",
        "lockstep_round",
        "((a) > (b) || (a) != (a) ? (a) : (b))",
        "((a) > (b) ? (a) : (b))",
    ),
]

LEFT_TO_RIGHT = """
static double left_to_right(const double *a, Py_ssize_t n)
{
    double res = 0.0;
    for (Py_ssize_t i = 0; i < n; i++)
        res += a[i];
    return res;
}
"""


@pytest.mark.parametrize(
    "sweep, old, new", [s[1:] for s in SABOTAGE], ids=[s[0] for s in SABOTAGE]
)
def test_a_kernel_that_fails_the_probe_is_not_used(
    has_cc, tmp_path, sweep, old, new
):
    text = _compiled._SOURCE.read_text()
    assert text.count(old) == 1
    text = text.replace(old, new)
    # The stand-in sum goes in before its caller.
    at = text.index("/* One synthetic sweep")
    source = tmp_path / "sabotaged.c"
    source.write_text(text[:at] + LEFT_TO_RIGHT + text[at:])
    module, status = _compiled._load_kernel(tmp_path / "cache", source)
    assert module is None
    assert status.startswith("python: ") and status.endswith(
        f" failed the {sweep} probe"
    ), status


def test_a_source_that_does_not_compile_falls_back(has_cc, tmp_path):
    source = tmp_path / "broken.c"
    source.write_text("this is not C\n")
    module, status = _compiled._load_kernel(tmp_path / "cache", source)
    assert module is None
    assert status.startswith("python: cc failed: "), status
    # The failed build leaves no temporary file behind.
    assert not any((tmp_path / "cache").iterdir())


def test_a_hung_compiler_times_out_and_falls_back(monkeypatch, tmp_path):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    fake = bin_dir / "cc"
    fake.write_text(f"#!{sys.executable}\nimport time\ntime.sleep(60)\n")
    fake.chmod(0o755)
    monkeypatch.setenv("PATH", f"{bin_dir}{os.pathsep}{os.environ['PATH']}")
    monkeypatch.setattr(_compiled, "_CC_TIMEOUT_S", 1.0)
    start = time.monotonic()
    kernel = _compiled._load_kernel(tmp_path / "cache")
    assert kernel == (None, "python: cc timed out")
    assert time.monotonic() - start < 30
    assert not any((tmp_path / "cache").iterdir())


def test_missing_python_headers_fall_back_with_that_reason(
    has_cc, monkeypatch, tmp_path
):
    include = tmp_path / "include"
    include.mkdir()
    paths = {"include": str(include)}
    monkeypatch.setattr(sysconfig, "get_paths", lambda *args, **kwargs: paths)
    kernel = _compiled._load_kernel(tmp_path / "cache")
    assert kernel == (None, f"python: no Python.h in {include}")
    assert not (tmp_path / "cache").exists()
    use_kernel(monkeypatch, kernel)
    assert _compiled.kernel_status() == kernel[1]


def test_the_cache_name_carries_the_interpreter_abi(has_cc, monkeypatch, tmp_path):
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    ours = library(_compiled._load_kernel(tmp_path)[1])
    assert ours.name.startswith("_sweeps-") and ours.name.endswith(suffix)
    # Another interpreter's build of the same source is a different
    # file: it never loads this one, nor this one it.
    real = sysconfig.get_config_var
    other = ".cpython-399-elsewhere.so"
    monkeypatch.setattr(
        sysconfig,
        "get_config_var",
        lambda name: other if name == "EXT_SUFFIX" else real(name),
    )
    theirs = library(_compiled._load_kernel(tmp_path)[1])
    assert theirs.name.endswith(other)
    assert theirs.name.removesuffix(other) != ours.name.removesuffix(suffix)
    assert sorted(tmp_path.iterdir()) == sorted([ours, theirs])


def test_a_truncated_or_foreign_library_is_rebuilt(has_cc, tmp_path):
    lib = library(_compiled._load_kernel(tmp_path)[1])
    good = lib.read_bytes()
    foreign = Path(np.random.bit_generator.__file__).read_bytes()
    for damaged in (good[: len(good) // 2], foreign, b"", b"not a library"):
        # A new file renamed over the old one, as a build does (the old
        # inode stays mapped in this process).
        tmp = tmp_path / "damaged"
        tmp.write_bytes(damaged)
        os.replace(tmp, lib)
        assert _compiled._load_kernel(tmp_path)[1] == f"compiled: {lib}"
        assert intact(lib)
    assert sorted(tmp_path.iterdir()) == [lib]


def test_an_unwritable_cache_falls_back(has_cc, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    module, status = _compiled._load_kernel(blocker / "cache")
    assert module is None
    assert status.startswith("python: "), status


def test_concurrent_builds_leave_one_valid_library(has_cc, tmp_path):
    start = threading.Barrier(2)
    statuses = []

    def build():
        start.wait()
        statuses.append(_compiled._load_kernel(tmp_path)[1])

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
import repro.problems.brusselator, repro.problems.heat, repro.problems.synthetic
from repro.problems import _compiled
assert _compiled._KERNEL is None
assert not (Path.home() / ".cache").exists()
subprocess.Popen = popen
# A sweep probes its own problem only: the others stay unloaded.
del sys.modules["repro.problems.brusselator"], sys.modules["repro.problems.heat"]
from repro.problems.synthetic import SyntheticProblem
problem = SyntheticProblem.with_hard_region(8)
problem.iterate(problem.initial_state(0, 8), 0.0, 0.0)
assert [s for s in _compiled.KERNELS if s in vars(_compiled)] == ["synthetic"]
assert "repro.problems.heat" not in sys.modules
assert "repro.problems.brusselator" not in sys.modules
print(_compiled.kernel_status())
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
    assert lib.name.startswith("_sweeps-") and intact(lib)
    assert lib.name.endswith(sysconfig.get_config_var("EXT_SUFFIX"))


# ----------------------------------------------------------------------
# The module reads and writes only inside the buffers it is handed
# ----------------------------------------------------------------------
def valid_calls():
    """``{sweep: (arguments, index of out)}``: one good call each."""
    brusselator = BrusselatorProblem(4, t_end=1.0, n_steps=3)
    ext = np.full((6, 2, 4), 1.0)
    ext[:, 1] = 3.0
    opts = brusselator.newton
    rng = np.random.default_rng(0)
    return {
        "brusselator": (
            [ext[0], ext[1:-1], ext[-1], np.empty(4 * 8 + 3 * 4 + 3),
             np.zeros(4), np.array([0.0, 3.0, 0.0, 3.0]), True, False, 3,
             0.25, brusselator.c, opts.tol, opts.max_iter, opts.damping,
             1e-6, 3],
            3,
        ),
        "heat": (
            [rng.normal(size=(1, 6)), rng.normal(size=(4, 6)),
             rng.normal(size=6), np.empty(4 * 8), 5, 0.5, 2.0],
            3,
        ),
        "synthetic": (
            [rng.uniform(0, 0.9, 10), 2, rng.uniform(0, 1, 5), 0.5,
             np.full(1, 0.25), np.empty(15), 0.3, 1e-4, 1.0, 5.0],
            5,
        ),
    }


#: Bad arguments only one sweep takes: (what, argument index, value).
ONLY = {
    "brusselator": [
        ("halo a float", 0, 1.0),
        ("halo one long", 2, np.zeros(9)),
        ("last residuals one short", 4, np.zeros(3)),
        ("last residuals missing", 4, None),
        ("streak int64", 5, np.zeros(4, dtype=np.int64)),
    ],
    "heat": [("halo one long", 0, np.zeros(7))],
    "synthetic": [("lo past the rates", 1, 6), ("halo of two", 4, np.zeros(2))],
}


def spoiled(sweep, args, at):
    """Each way to hand ``sweep`` a bad buffer: (what, arguments)."""
    read_only = args[at].copy()
    read_only.setflags(write=False)
    state = {"brusselator": 1, "heat": 1, "synthetic": 2}[sweep]
    block = args[state]
    for what, i, value in [
        ("out one short", at, args[at][:-1]),
        ("out read-only", at, read_only),
        ("out float32", at, args[at].astype(np.float32)),
        ("state float32", state, block.astype(np.float32)),
        ("state strided", state, np.repeat(block, 2, axis=0)[::2]),
        ("state one short", state, block.reshape(-1)[:-1]),
        *ONLY[sweep],
    ]:
        yield what, [value if j == i else a for j, a in enumerate(args)]


def test_the_module_rejects_bad_buffers_and_writes_nothing():
    module, status = compiled_kernel()
    if module is None:
        pytest.skip(status)
    for sweep, (args, at) in valid_calls().items():
        getattr(module, sweep)(*args)  # the good call runs
        for what, bad in spoiled(sweep, args, at):
            arrays = [a for a in bad if isinstance(a, np.ndarray)]
            before = [a.tobytes() for a in arrays]
            with pytest.raises((TypeError, ValueError, BufferError, IndexError)):
                getattr(module, sweep)(*bad)
            assert [a.tobytes() for a in arrays] == before, (sweep, what)
        with pytest.raises(TypeError):
            getattr(module, sweep)(*args[:-1])


def read_only(array):
    array = array.copy()
    array.setflags(write=False)
    return array


#: Bad arguments of the lockstep round: (what, argument index, how).
ROUND_SPOILS = [
    ("state float32", 0, lambda a: a.astype(np.float32)),
    ("state strided", 0, lambda a: np.repeat(a, 2, axis=1)[:, ::2]),
    ("state read-only", 0, read_only),
    ("state one short", 0, lambda a: a.reshape(-1)[:-1]),
    ("platform int64", 1, lambda a: np.zeros(a.shape, dtype=np.int64)),
    ("platform one long", 1, lambda a: np.append(a, 0.0)),
    ("work one short", 2, lambda a: a[:-1]),
    ("work a list", 2, list),
    ("no ranks", 2, lambda a: a[:0]),
    ("residual strided", 3, lambda a: np.repeat(a, 2)[::2]),
    ("out read-only", 4, read_only),
    ("out float32", 4, lambda a: a.astype(np.float32)),
    ("out one long", 4, lambda a: np.append(a, 0.0)),
]


def test_the_round_digests_are_the_oracles():
    """The probe's frozen digests are what the NumPy oracle books."""
    assert _compiled._ROUND_DIGESTS == _compiled._lockstep_round_digests(oracles)


def test_both_round_paths_reject_the_same_bad_buffers_and_write_nothing():
    """The NumPy oracle and the compiled ``lockstep_round`` raise the
    same exception type for each malformed buffer, before any write."""
    module = compiled_kernel()[0]
    good = _compiled._lockstep_round_cases()[1]
    for what, at, spoil in ROUND_SPOILS:
        raised = set()
        for kernel in [oracles] + [module] * (module is not None):
            args = [a.copy() if isinstance(a, np.ndarray) else a for a in good]
            args[at] = spoil(args[at])
            arrays = [a for a in args if isinstance(a, np.ndarray)]
            before = [a.tobytes() for a in arrays]
            with pytest.raises((TypeError, ValueError)) as exc:
                kernel.lockstep_round(*args)
            raised.add(exc.type)
            assert [a.tobytes() for a in arrays] == before, what
        assert len(raised) == 1, (what, raised)


def test_a_failed_probe_at_a_later_first_use_sends_every_sweep_to_python(
    monkeypatch,
):
    module, status = compiled_kernel()
    if module is None:
        pytest.skip(status)
    use_kernel(monkeypatch, (module, "compiled: lib"))
    for sweep in ("brusselator", "heat"):  # not resolved yet
        monkeypatch.delattr(_compiled, sweep)
    monkeypatch.setattr(
        _compiled, "_failed_probe", lambda module, sweep: sweep == "heat"
    )
    assert _compiled.brusselator is module
    assert _compiled.heat is None
    assert [getattr(_compiled, s) for s in _compiled.KERNELS] == [None] * 4
    assert _compiled.kernel_status() == "python: lib failed the heat probe"
