"""The compiled sweeps: built on first use, trusted after a probe.

``_sweeps.c`` holds the three problems' Python sweeps as loops — the
Brusselator's skip mask and ``_sweep_scalar`` loop, and the NumPy sweeps
of ``HeatProblem._sweep`` and ``SyntheticProblem._sweep`` — as one CPython
extension module of three functions that read and write NumPy arrays
through the buffer protocol.  At a process's first sweep (never at
import) the system ``cc`` builds it against this interpreter's headers
into a cache and it is loaded; each of its sweeps is used only once it
has reproduced its Python path bit for bit on :func:`_probe_cases`, at
that sweep's first use (so a process loads only the problems it runs).
Without a module, or from the first failed probe on, every problem
takes its Python path, silently.  Both paths give the same bits, so
nothing selects between them and no run result records which ran.
"""

from __future__ import annotations

import struct
from dataclasses import fields
from pathlib import Path
from types import ModuleType

import numpy as np

__all__ = ["kernel_status"]

#: The source, and how it is built: no fused multiply-add and no
#: reassociation, so it computes what the Python sweeps do.
_SOURCE = Path(__file__).with_name("_sweeps.c")
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

#: Seconds a build may take: a compiler that hangs longer counts as a
#: failed build rather than blocking the first sweep forever.
_CC_TIMEOUT_S = 120.0

#: The sweeps the module holds.  ``_compiled.<sweep>`` is what each
#: problem's ``iterate`` passes its ``_sweep``: see :func:`__getattr__`.
SWEEPS = ("brusselator", "heat", "synthetic")

#: ``(module or None, status)``, resolved at a process's first sweep
#: (never at import): see :func:`kernel_status`.
_KERNEL: tuple[ModuleType | None, str] | None = None


def kernel_status() -> str:
    """Which sweeps this process runs, and why: ``"compiled: <library>"``
    or ``"python: <reason>"`` (no ``cc`` or no ``Python.h``, a cache that
    cannot be written, a failed or timed-out compile, a failed load, a
    failed probe).  Resolves every sweep that has not run yet."""
    for sweep in SWEEPS:
        if sweep not in globals():
            __getattr__(sweep)
    return _KERNEL[1]


def __getattr__(sweep: str) -> ModuleType | None:
    """``_compiled.<sweep>``, one of :data:`SWEEPS`: the compiled module
    once that sweep's probe passed, else None for its Python path.
    Resolved at the sweep's first use and kept as a global, so a sweep
    reads a plain attribute.  A failed probe sends every sweep to
    Python from then on."""
    if sweep not in SWEEPS:
        raise AttributeError(f"module {__name__!r} has no attribute {sweep!r}")
    global _KERNEL
    if _KERNEL is None:
        _KERNEL = _load_kernel(sweeps=())
    module, status = _KERNEL
    if module is not None and _failed_probe(module, sweep):
        module, lib = None, status.removeprefix("compiled: ")
        _KERNEL = None, f"python: {lib} failed the {sweep} probe"
        globals().update(dict.fromkeys(SWEEPS))
    globals()[sweep] = module
    return module


def _load_kernel(
    cache: Path | None = None, source: Path = _SOURCE, sweeps=SWEEPS
) -> tuple[ModuleType | None, str]:
    """``(module, status)``: ``source`` compiled with the system ``cc``
    into ``cache`` (default ``~/.cache/repro``) and loaded as an
    extension module, which must pass the probe of each of ``sweeps``;
    otherwise ``(None, "python: <reason>")``.

    The library is named by the SHA-256 of the source, the compiler, the
    flags, the platform, the headers' directory and the interpreter ABI,
    and that ABI's ``EXT_SUFFIX`` ends the name; it carries the SHA-256
    of its own bytes appended, so a truncated or foreign file at that
    name is rebuilt rather than loaded.  A build goes to a temporary file
    first and is then ``os.replace``-d in, so racing processes leave one
    valid library.
    """
    import hashlib
    import shutil
    import sysconfig
    from importlib.machinery import ExtensionFileLoader
    from importlib.util import module_from_spec, spec_from_file_location

    cc = shutil.which("cc")
    if cc is None:
        return None, "python: no C compiler (cc) on PATH"
    include = sysconfig.get_paths()["include"]
    if not Path(include, "Python.h").is_file():
        return None, f"python: no Python.h in {include}"
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    try:
        cache = Path.home() / ".cache" / "repro" if cache is None else cache
        parts = (cc, " ".join(_CFLAGS), sysconfig.get_platform(), include, suffix)
        key = hashlib.sha256(
            b"\0".join((source.read_bytes(), *map(str.encode, parts)))
        ).hexdigest()
        lib = cache / f"_sweeps-{key}{suffix}"
        try:
            data = lib.read_bytes()
        except FileNotFoundError:
            data = b""
        if hashlib.sha256(data[:-32]).digest() != data[-32:]:
            failed = _build(cc, source, lib, include)
            if failed:
                return None, f"python: {failed}"
        # Loaded under its own name, kept out of sys.modules.
        loader = ExtensionFileLoader("_sweeps", str(lib))
        spec = spec_from_file_location("_sweeps", lib, loader=loader)
        module = module_from_spec(spec)
        loader.exec_module(module)
    except (OSError, ImportError) as exc:
        return None, f"python: {type(exc).__name__}: {exc}"
    for sweep in sweeps:
        if _failed_probe(module, sweep):
            return None, f"python: {lib} failed the {sweep} probe"
    return module, f"compiled: {lib}"


def _failed_probe(module: ModuleType, sweep: str) -> bool:
    """Whether ``module`` sweeps a probe case of ``sweep`` other than its
    Python path does."""
    # The probe's overflows and NaNs are meant: no warning for them.
    with np.errstate(all="ignore"):
        return any(
            _trace(module, problem, args) != _trace(None, problem, args)
            for problem, args in _probe_cases(sweep)
        )


def _build(cc: str, source: Path, lib: Path, include: str) -> str:
    """Compile ``source`` to ``lib`` with its SHA-256 appended, through a
    temporary file renamed into place: ``""``, else why it failed
    (``cc failed: <the compiler's last error line>``, ``cc timed out``)."""
    import hashlib
    import os
    import subprocess
    import tempfile

    lib.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=lib.parent)
    os.close(fd)
    try:
        built = subprocess.run(
            [cc, *_CFLAGS, "-I", include, "-o", tmp, str(source)],
            capture_output=True,
            text=True,
            timeout=_CC_TIMEOUT_S,
        )
        if built.returncode:
            lines = built.stderr.strip().splitlines() or ["?"]
            errors = [line for line in lines if "error" in line]
            return f"cc failed: {(errors or lines)[-1]}"
        body = Path(tmp).read_bytes()
        Path(tmp).write_bytes(body + hashlib.sha256(body).digest())
        os.replace(tmp, lib)
        return ""
    except subprocess.TimeoutExpired:
        return "cc timed out"
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _probe_cases(sweep: str) -> list[tuple[object, tuple]]:
    """``(problem, arguments of its _sweep)`` cases the compiled
    ``sweep`` must reproduce before its first use.

    Brusselator: verified and iterating steps, full and damped Newton,
    each clause of the skip test (a component's own residual, each
    neighbour's, each block edge's halo, the refresh period) alone
    keeping a component swept, a kept residual that is the block's max
    and a carried streak, and every way a step fails.  Heat, held to its
    NumPy route: blocks of 3, 4 and 12 components, both halo shapes, a
    NaN, ±inf, a signed zero and an overflow.  Synthetic, held to its
    NumPy route: blocks in each regime of NumPy's pairwise sum (fewer
    than 8 values, up to 128, halved above) with costs that tell every
    sum order apart, float and array halos, a NaN and a max that is zero.
    """
    from repro.problems.base import BlockState

    rng = np.random.default_rng(0)
    if sweep == "heat":
        from repro.problems.heat import HeatProblem

        heat = HeatProblem(32, t_end=0.05, n_steps=6)
        rows = rng.normal(size=(12, 7))
        special = rows[:4].copy()
        special[1, 2], special[2, 5], special[3, 0] = np.nan, -np.inf, -0.0
        halos = rng.normal(size=(2, 7))
        halos[0, 3] = np.inf
        return [
            (heat, (BlockState(2, block.copy()), left, right))
            for block, left, right in (
                (rows[:3], halos[:1], halos[1:]),
                (rows, halos[0], halos[1]),
                (special, halos[:1], halos[1:]),
                (rows * 1e307, halos[0], halos[1]),
            )
        ]
    if sweep == "synthetic":
        from repro.problems.synthetic import SyntheticProblem

        # An active component costs 2**53: a unit cost added to a partial
        # sum that holds one is lost, so each sum order has its own total.
        synthetic = SyntheticProblem(
            rng.uniform(0.0, 0.99, 320), coupling=0.4, active_cost=2.0**53
        )
        errors = 1e-5 * rng.random(300)
        errors[[8, 158]] = 1.0
        errors[7] = np.nan
        return [
            (synthetic, (BlockState(lo, block.copy()), left, right))
            for lo, block, left, right in (
                (3, errors[:5], 1e-3, np.full(1, 2e-4)),
                (0, errors[8:29], np.zeros(1), 0.5),
                (10, errors[8:], np.full(1, 1e-5), np.zeros(1)),
                (1, errors[4:10], np.full(1, -np.inf), np.inf),
                (0, np.array([-0.0, 0.0, -0.0]), -0.0, np.zeros(1)),
            )
        ]
    from copy import copy
    from dataclasses import replace

    from repro.problems.brusselator import U_BOUNDARY, V_BOUNDARY
    from repro.problems.brusselator import BrusselatorProblem as Brusselator
    from repro.problems.brusselator import BrusselatorState as State

    # At the steady state (u, v) = (1, 3) every residual is exactly 0:
    # the three bumps make their steps and their neighbours' iterate.
    calm = Brusselator(6, t_end=1.0, n_steps=5)
    steady = np.empty((6, 2, 6))
    steady[:, 0], steady[:, 1] = U_BOUNDARY, V_BOUNDARY
    traj = steady.copy()
    traj[1, 0, 2] += 0.1
    traj[3, 1, 4] -= 0.05
    traj[4, 0, 1] += 0.3
    edge = calm.initial_halo(-1)
    # Skipping below 1e-3, refreshed every 3 sweeps: each clause of the
    # skip test alone keeps a component swept.  On the steady state, a
    # moved left halo keeps component 0, the loud residual of 2 keeps 1,
    # 2 and 3, the refresh keeps 4; 5 skips, its kept residual the max
    # and its streak carried.  The bumped block under damped Newton is
    # the mirror image.
    skipper = Brusselator(
        6, t_end=1.0, n_steps=5, skip_converged=True, skip_threshold=1e-3,
        refresh_period=3,
    )
    damped = copy(skipper)
    damped.newton = replace(damped.newton, damping=0.5, max_iter=60)
    res, streak = np.array([[0, 0, 1, 0, 0, 2e-4], [0, 0, 0, 0, 3, 1.0]])
    moved = edge + 0.01
    left_moved = State(0, steady, res, streak, moved, edge.copy())
    right_moved = State(0, traj, res[::-1], streak[::-1], edge.copy(), moved)
    # dt = 1, c = 0.5, three passes at most: (2, 3) is a singular
    # Jacobian at step 2 of component 1, its neighbours exhaust the
    # passes there, the jump at step 1 of component 4 exhausts them at
    # step 1 and so does the NaN halo of component 6 — after the
    # failures at step 2, so the failed count must restart.
    hard = Brusselator(7, t_end=3.0, n_steps=3, alpha=0.5 / 64, newton_max_iter=3)
    rough = np.empty((7, 2, 4))
    rough[:, 0], rough[:, 1] = U_BOUNDARY, V_BOUNDARY
    rough[1, :, 2] = 2.0, 3.0
    rough[4, 0, 1] = 5.0
    nan_edge = hard.initial_halo(7)
    nan_edge[0, 1] = np.nan
    return [
        (calm, (State(0, traj), edge, edge)),
        (skipper, (left_moved, edge, edge)),
        (damped, (right_moved, edge, edge)),
        (hard, (State(0, rough), hard.initial_halo(-1), nan_edge)),
    ]


def _trace(module: ModuleType | None, problem, args: tuple) -> bytes:
    """Everything one ``problem._sweep(module, state, left, right)`` hands
    back and leaves in the state, as bytes, run on a copy of ``state``:
    the result's arrays and reductions, or a failure's text."""
    state = problem.copy_state(args[0])
    try:
        result = problem._sweep(module, state, *args[1:])
    except RuntimeError as exc:
        parts = [str(exc).encode()]
    else:
        reduced = (result.local_residual, result.total_work)
        parts = [result.residuals.tobytes(), result.work.tobytes()]
        parts.append(struct.pack("dd", *reduced) + repr(reduced).encode())
    for field in fields(state):
        value = getattr(state, field.name)
        if isinstance(value, np.ndarray):
            parts.append(value.dtype.str.encode() + value.tobytes())
        else:
            parts.append(repr(value).encode())
    return b"|".join(parts)
