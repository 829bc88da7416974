"""The Brusselator sweep's two paths ≡ the formulations it has had.

``BrusselatorProblem._sweep(kernel, state, left, right)`` runs the
compiled sweep (``_sweeps.c``: the skip test, the sweep and the
reductions in one loop) when it loads and its reference, the NumPy skip
mask and the scalar sweep on Python floats (``_sweep_scalar``),
otherwise; both are the same per (component, step) Newton loop for every
batch size.  This module keeps *test-local* copies of the formulations
both must reproduce — the groupings of that loop the sweep's earlier
routes used, NumPy stage 1 + per-step ``newton_batched_2x2`` among them,
and the skip mask the sweep once took from NumPy — and forces each path
by standing in for the loader's result (``force_sweep_path``).
Everything is compared bitwise (``tobytes()``): values, work counts and
residuals, signs of zero included, the residual max and work sum handed
back with them, the skip bookkeeping left in the state, and the failure
text."""

import copy

import dataclasses
import functools
import hashlib
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.numerics.newton import newton_batched_2x2
from repro.problems import _compiled
from repro.problems.base import padded
from repro.problems.brusselator import (
    BrusselatorProblem,
    BrusselatorState,
    _quiet_since,
)
from repro.workloads import ScaleScenario
from tests.conftest import SWEEP_PATHS as ROUTES
from tests.conftest import compiled_kernel, force_sweep_path
from tests.test_problems_batched_diff import (
    _halo,
    assert_batched_matches_scalar,
    chain_partitions,
)

#: ``(NumPy stage 1, batched loop)`` per formulation: whether one NumPy
#: pass first finds each component's leading run of steps whose old
#: values pass the residual test (else every step starts in Newton, whose
#: pass 0 is that test), and whether a step's Newton runs on all its
#: components at once (else on one at a time).  The arithmetic is
#: elementwise, so every grouping gives the same bits.
FORMULATIONS = {
    "scalar sweep": (False, False),
    "numpy stage 1 + scalar tail": (True, False),
    "numpy stage 1 + batched loop": (True, True),
}


def reference_sweep(
    problem, ext, skip, formulation="numpy stage 1 + batched loop"
):
    """One sweep as ``formulation`` groups it, whatever the size."""
    stage_1, batched = FORMULATIONS[formulation]
    left, old, right = ext[:-2], ext[1:-1], ext[2:]
    n = old.shape[0]
    steps, dt, c = problem.n_steps, problem.dt, problem.c
    active = np.arange(n) if skip is None else np.flatnonzero(~skip)
    new = old.copy()
    work = np.ones(n)
    if active.size:
        verified = np.zeros(active.size, dtype=np.int64)
        if stage_1:
            X, L, R = old[active], left[active], right[active]
            Xk = X[:, :, 1:]
            Uk, Vk = Xk[:, 0], Xk[:, 1]
            u_sq = Uk * Uk
            reaction_u = 1.0 + u_sq * Vk - 4.0 * Uk
            reaction_v = 3.0 * Uk - u_sq * Vk
            diff = c * (L[:, :, 1:] - 2.0 * Xk + R[:, :, 1:])
            f1 = Uk - X[:, 0, :-1] - dt * (reaction_u + diff[:, 0])
            f2 = Vk - X[:, 1, :-1] - dt * (reaction_v + diff[:, 1])
            ok = np.maximum(np.abs(f1), np.abs(f2)) <= problem.newton.tol
            verified = np.where(ok.all(axis=1), steps, np.argmin(ok, axis=1))
        work[active] = verified
        for k in range(int(verified.min()) + 1, steps + 1):
            rows = active[verified < k]
            groups = [rows] if batched else np.split(rows, rows.size)
            bad = sum(
                newton_step(problem, ext, new, work, group, k)
                for group in groups
            )
            if bad:
                raise RuntimeError(
                    f"brusselator Newton failed on {bad} component(s) at "
                    f"step {k} (block starting at 0); "
                    "reduce dt or raise newton_max_iter"
                )
    return new, work, np.max(np.abs(new - old), axis=(1, 2))


def newton_step(problem, ext, new, work, rows, k):
    """Step ``k``'s Newton on ``rows`` as one batch: fills ``new`` and
    ``work``, returns how many components failed."""
    left, old, right = ext[:-2], ext[1:-1], ext[2:]
    dt, c = problem.dt, problem.c
    up, vp = new[rows, 0, k - 1], new[rows, 1, k - 1]
    ul, ur = left[rows, 0, k], right[rows, 0, k]
    vl, vr = left[rows, 1, k], right[rows, 1, k]

    def f(u, v):
        u_sq = u * u
        reaction_u = 1.0 + u_sq * v - 4.0 * u
        reaction_v = 3.0 * u - u_sq * v
        diff_u = c * (ul - 2.0 * u + ur)
        diff_v = c * (vl - 2.0 * v + vr)
        f1 = u - up - dt * (reaction_u + diff_u)
        f2 = v - vp - dt * (reaction_v + diff_v)
        j11 = 1.0 - dt * (2.0 * u * v - 4.0 - 2.0 * c)
        j12 = -dt * u_sq
        j21 = -dt * (3.0 - 2.0 * u * v)
        j22 = 1.0 + dt * (u_sq + 2.0 * c)
        return f1, f2, j11, j12, j21, j22

    result = newton_batched_2x2(
        f, old[rows, 0, k], old[rows, 1, k], problem.newton
    )
    new[rows, 0, k] = result.u
    new[rows, 1, k] = result.v
    work[rows] += result.iterations
    return int(np.count_nonzero(~result.converged))


def reference_skip(problem, state, left, right):
    """The components ``state`` keeps this sweep, as the sweep's NumPy
    mask once chose them (None: skipping cannot engage)."""
    if (
        not problem.skip_converged
        or state.prev_res is None
        or state.skip_streak is None
    ):
        return None
    thr = problem.skip_threshold
    quiet = state.prev_res < thr
    neighbours = padded(
        quiet,
        _quiet_since(left, state.last_left_halo, thr),
        _quiet_since(right, state.last_right_halo, thr),
    )
    return (
        quiet
        & neighbours[:-2]
        & neighbours[2:]
        & (state.skip_streak < problem.refresh_period)
    )


def sweep_block(problem, ext, skip=None, lo=0):
    """The forced path's sweep of the block between the halos of the
    padded buffer ``ext``, starting at ``lo``, as ``(new, work,
    residuals, (their max, the work's sum))``.  The components ``skip``
    marks keep their trajectories: the block's last residuals are all 0
    beside halos that have not moved, and every other component is due
    its refresh."""
    state = BrusselatorState(lo, ext[1:-1])
    if skip is not None:
        problem = copy.copy(problem)
        problem.skip_converged = True
        state.prev_res = np.zeros(state.n)
        state.skip_streak = np.where(skip, 0.0, problem.refresh_period)
        state.last_left_halo, state.last_right_halo = ext[0], ext[-1]
    result = problem.iterate(state, ext[0], ext[-1])
    reduced = (result.local_residual, result.total_work)
    return state.traj, result.work, result.residuals, reduced


def assert_sweep_equals_reference(
    problem, ext, skip, lo=0, formulation="numpy stage 1 + batched loop",
    want=None,
):
    """The path's arrays equal ``formulation``'s bitwise (``want``, when
    already computed), and so do the residual max and work sum it hands
    back."""
    *got, reduced = sweep_block(problem, ext, skip, lo)
    if want is None:
        want = reference_sweep(problem, ext, skip, formulation)
    for name, g, w in zip(("new", "work", "residuals"), got, want):
        assert g.dtype == w.dtype == np.float64, name
        assert g.shape == w.shape, name
        assert g.tobytes() == w.tobytes(), name
    _, work, residuals = want
    top = float(residuals.max()) if residuals.size else 0.0
    assert struct.pack("dd", *reduced) == struct.pack(
        "dd", top, float(work.sum())
    )
    return got


def assert_blocks_follow_reference(
    problem, blocks, n_sweeps, formulation="numpy stage 1 + batched loop"
):
    """Every block's every ``iterate`` (Jacobi round, halos read first)
    equals ``formulation``'s sweep with the reference skip mask: the new
    state, the work, the residuals with each skipped component's kept
    one, their max and sum, and the next skip streaks."""
    states = {
        r: problem.initial_state(lo, hi)
        for r, (lo, hi) in enumerate(blocks)
        if hi > lo
    }
    for _ in range(n_sweeps):
        halos = {
            r: (
                _halo(problem, blocks, states, r, "left"),
                _halo(problem, blocks, states, r, "right"),
            )
            for r in states
        }
        for r, state in states.items():
            skip = reference_skip(problem, state, *halos[r])
            ext = padded(state.traj, *halos[r])
            new, work, residuals = reference_sweep(
                problem, ext, skip, formulation
            )
            streak = np.zeros(state.n)
            if skip is not None:
                residuals[skip] = state.prev_res[skip]
                streak = np.where(skip, state.skip_streak + 1.0, 0.0)
            res = problem.iterate(state, *halos[r])
            for got, want in [
                (state.traj, new),
                (res.work, work),
                (res.residuals, residuals),
            ]:
                assert got.tobytes() == want.tobytes()
            assert struct.pack("dd", res.local_residual, res.total_work) == (
                struct.pack("dd", residuals.max(), work.sum())
            )
            if problem.skip_converged:
                assert state.skip_streak.tobytes() == streak.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    part=chain_partitions(),
    n_steps=st.integers(4, 10),
    skip=st.booleans(),
    refresh_period=st.integers(1, 4),
    damping=st.sampled_from([1.0, 0.5]),
    route=st.sampled_from(ROUTES),
    n_sweeps=st.integers(1, 6),
)
def test_every_route_equals_reference(
    part, n_steps, skip, refresh_period, damping, route, n_sweeps
):
    n, blocks = part
    problem = BrusselatorProblem(
        n,
        t_end=1.0,
        n_steps=n_steps,
        skip_converged=skip,
        skip_threshold=1e-2,
        refresh_period=refresh_period,
    )
    problem.newton = dataclasses.replace(
        problem.newton, damping=damping, max_iter=60
    )
    with pytest.MonkeyPatch.context() as monkeypatch:
        force_sweep_path(monkeypatch, route)
        assert_blocks_follow_reference(problem, blocks, n_sweeps)
        # The chain sweeper's one batch and the per-rank blocks.
        assert_batched_matches_scalar(problem, blocks, n_sweeps)


@pytest.mark.parametrize("formulation", FORMULATIONS)
def test_deterministic_shapes_on_each_route(monkeypatch, formulation):
    sweep = functools.partial(
        assert_sweep_equals_reference, formulation=formulation
    )
    for route in ROUTES:
        force_sweep_path(monkeypatch, route)
        problem = BrusselatorProblem(
            12, t_end=1.0, n_steps=6, skip_converged=True, skip_threshold=1e-3,
            refresh_period=3,
        )
        # One-component blocks at both domain edges and inside, a large one.
        blocks = [(0, 1), (1, 2), (2, 11), (11, 12)]
        assert_blocks_follow_reference(problem, blocks, 25, formulation)

        steps = problem.n_steps
        # A block failing at step 1: constant-in-time initial trajectories.
        state = problem.initial_state(0, 12)
        edge = problem.initial_halo(-1)
        ext = padded(state.traj, edge, edge)
        _, work, residuals = sweep(problem, ext, None)
        assert (work > steps).all() and (residuals > 0.0).all()

        # A fully verified block: the fixed point.  Nothing moves, every
        # step costs one unit, and the residual is +0.0 (never -0.0).
        plain = BrusselatorProblem(12, t_end=1.0, n_steps=6)
        for _ in range(200):
            if plain.iterate(state, edge, edge).local_residual == 0.0:
                break
        ext = padded(state.traj, edge, edge)
        new, work, residuals = sweep(plain, ext, None)
        assert new.tobytes() == state.traj.tobytes()
        assert work.tobytes() == np.full(12, float(steps)).tobytes()
        assert residuals.tobytes() == np.zeros(12).tobytes()

        # All but one component skipped, all skipped, no components at all.
        only = np.ones(12, dtype=bool)
        only[5] = False
        sweep(problem, ext, only)
        new, work, residuals = sweep(problem, ext, np.ones(12, dtype=bool))
        assert work.tobytes() == np.ones(12).tobytes()
        new, work, residuals, reduced = sweep_block(problem, ext[:2])
        assert new.shape == (0, 2, steps + 1)
        assert work.shape == residuals.shape == (0,)
        assert reduced == (0.0, 0.0)


@functools.cache
def fixed_point():
    """Twelve components × 6 steps every step of which verifies (both
    arrays read-only: every caller shares them)."""
    problem = BrusselatorProblem(12, t_end=1.0, n_steps=6)
    state = problem.initial_state(0, 12)
    edge = problem.initial_halo(-1)
    for _ in range(200):
        if problem.iterate(state, edge, edge).local_residual == 0.0:
            state.traj.flags.writeable = edge.flags.writeable = False
            return state.traj, edge
    raise AssertionError("no fixed point within 200 sweeps")


def bumped(bumps, max_iter=25, damping=1.0):
    """The fixed point with ``traj[j, 0, k] += bump`` per ``(j, k, bump)``."""
    traj, edge = fixed_point()
    traj = traj.copy()
    for j, k, bump in bumps:
        traj[j, 0, k] += bump
    problem = BrusselatorProblem(
        12, t_end=1.0, n_steps=6, newton_max_iter=max_iter
    )
    problem.newton = dataclasses.replace(problem.newton, damping=damping)
    return problem, padded(traj, edge, edge)


@pytest.mark.parametrize("formulation", FORMULATIONS)
def test_participants_join_at_staggered_steps(monkeypatch, formulation):
    # Every component is bumped at a different step (its neighbours read
    # the bump too), so the components start iterating at steps 1-4 of
    # the sweep instead of all at step 1, under full and damped Newton.
    bumps = [(j, 1 + 5 * j % 6, 1e-3 * (j + 1)) for j in range(12)]
    for route in ROUTES:
        force_sweep_path(monkeypatch, route)
        for damping in (1.0, 0.5):
            problem, ext = bumped(bumps, damping=damping)
            new, _, _ = assert_sweep_equals_reference(
                problem, ext, None, formulation=formulation
            )
            first = np.argmax((new != ext[1:-1]).any(axis=1), axis=1)
            assert first.tolist() == [1, 1, 4, 3, 2, 1, 1, 1, 4, 3, 2, 2]


#: Eight components bumped at step 3 by 1e-6 … 3.0: their step-3 Newton
#: needs 1 to 6 passes.
STEP_3_BUMPS = [
    (j + 1, 3, bump)
    for j, bump in enumerate([1e-6, 1e-4, 1e-2, 1e-1, 0.3, 1.0, 2.0, 3.0])
]


@pytest.mark.parametrize("max_iter, failed", [(3, 3), (4, 1), (5, 1)])
def test_converging_on_pass_max_iter_beside_exhausted_ones(
    monkeypatch, max_iter, failed
):
    # At step 3 some components converge on pass max_iter itself while
    # `failed` others exhaust the budget: only the latter are counted.
    problem, ext = bumped(STEP_3_BUMPS, max_iter)
    want = (
        f"brusselator Newton failed on {failed} component(s) at step 3 "
        "(block starting at 0); reduce dt or raise newton_max_iter"
    )
    with pytest.raises(RuntimeError, match=re.escape(want)):
        reference_sweep(problem, ext, None)
    texts = texts_by_route(monkeypatch, problem, ext, 0)
    assert set(texts.values()) == {want}, texts


@pytest.mark.parametrize("formulation", FORMULATIONS)
def test_last_component_converges_on_pass_max_iter(monkeypatch, formulation):
    # One pass fewer fails (above): the slowest component converges on
    # the last pass the budget allows.
    problem, ext = bumped(STEP_3_BUMPS, 6)
    for route in ROUTES:
        force_sweep_path(monkeypatch, route)
        assert_sweep_equals_reference(
            problem, ext, None, formulation=formulation
        )


def singular_on_pass_1():
    """127 components, dt = 1 and c = 0.5 exactly.  Component 0 starts
    step 1 at (1.5, 3.5) with u_prev = (0.3125, 4.1875): its residual
    is (-1.6875, 2.6875), and one Newton step lands exactly on
    (1, 3.75), where j11 j22 = j12 j21 = -4.5 while the residual is not
    zero — singular on pass 1.  The 126 others start at rest at
    (1.5, 3.5) and converge.
    """
    problem = BrusselatorProblem(127, t_end=4.0, n_steps=4, alpha=0.5 / 128**2)
    assert problem.dt == 1.0 and problem.c == 0.5
    traj = np.empty((127, 2, 5))
    traj[:, 0], traj[:, 1] = 1.5, 3.5
    traj[0, :, 0] = 0.3125, 4.1875
    edge = np.array([[1.5] * 5, [3.5] * 5])
    return problem, padded(traj, edge, edge)


def test_singular_on_a_later_pass_beside_converging_components(monkeypatch):
    problem, ext = singular_on_pass_1()
    texts = texts_by_route(monkeypatch, problem, ext, 0)
    assert set(texts.values()) == {
        "brusselator Newton failed on 1 component(s) at step 1 "
        "(block starting at 0); reduce dt or raise newton_max_iter"
    }, texts
    # Without component 0 the same batch sweeps cleanly on every route.
    skip = np.zeros(127, dtype=bool)
    skip[0] = True
    for route in ROUTES:
        force_sweep_path(monkeypatch, route)
        assert_sweep_equals_reference(problem, ext, skip)


def lockstep_problem(n):
    """The ``lockstep_sisc`` workload's Brusselator at ``n`` components."""
    return ScaleScenario(
        problem_kind="brusselator", n_ranks=n // 6, components_per_rank=6
    ).problem()


@functools.cache
def seeded_buffer(n):
    """``lockstep_problem(n)`` 40 sweeps in, a quarter of the components'
    old values jittered at one seeded step each (their first changed
    steps spread over 1-15); above 100 components a seeded fifth is
    skipped.
    Read-only: every caller shares them, and a sweep that wrote to its
    input would fail here."""
    problem = lockstep_problem(n)
    state = problem.initial_state(0, n)
    left, right = problem.initial_halo(-1), problem.initial_halo(n)
    for _ in range(40):
        problem.iterate(state, left, right)
    rng = np.random.default_rng(n)
    traj = state.traj.copy()
    hit = rng.choice(n, n // 4, replace=False)
    at = rng.integers(1, problem.n_steps + 1, hit.size)
    traj[hit, :, at] += rng.normal(0.0, 1e-4, (hit.size, 2))
    skip = rng.random(n) < 0.2 if n > 100 else None
    ext = padded(traj, left, right)
    for array in (ext, skip):
        if array is not None:
            array.flags.writeable = False
    return ext, skip


#: sha256 of ``new``, ``work`` and ``residuals`` bytes, in that order.
SWEEP_DIGESTS = {
    96: "21e33ebaf5b122a365ae963e79da5e5af115d950b32f3477389bcb3b8dd4e87c",
    288: "5239dc5b02a427753bb32cc02c6dbfe475d8997a35973578f2d5254c321e7224",
}

#: The same recipe at Newton damping 0.5, where all three formulations
#: gave these bytes.  The two scalar ones take seconds a sweep there, so
#: at 288 components they are held through this pin: the batched
#: formulation is their stand-in.
DAMPED_DIGESTS = {
    96: "fc9f6fa5bc020dd31a0b1c89afe38218795d264c421cb9344d34b09a9241a016",
    288: "cfd86c36196843ecdc6d6e4252e8b91ada5b48be115f05b1f2aaae90a7b42796",
}


def sweep_digest(arrays):
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(array.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("n", sorted(SWEEP_DIGESTS))
def test_large_batch_sweep_digest(monkeypatch, n):
    ext, skip = seeded_buffer(n)
    for route in ROUTES:
        force_sweep_path(monkeypatch, route)
        got = sweep_block(lockstep_problem(n), ext, skip)[:3]
        assert sweep_digest(got) == SWEEP_DIGESTS[n], route


@pytest.mark.parametrize("damping", [1.0, 0.5])
@pytest.mark.parametrize("formulation", FORMULATIONS)
def test_large_batches_on_each_route(monkeypatch, formulation, damping):
    pins = SWEEP_DIGESTS if damping == 1.0 else DAMPED_DIGESTS
    for n in sorted(pins):
        problem = lockstep_problem(n)
        problem.newton = dataclasses.replace(problem.newton, damping=damping)
        held = damping == 1.0 or n == 96
        used = formulation if held else "numpy stage 1 + batched loop"
        want = reference_sweep(problem, *seeded_buffer(n), used)
        assert sweep_digest(want) == pins[n], used
        for route in ROUTES:
            force_sweep_path(monkeypatch, route)
            assert_sweep_equals_reference(
                problem, *seeded_buffer(n), want=want
            )


# ----------------------------------------------------------------------
# Failure paths: the same RuntimeError from every route
# ----------------------------------------------------------------------
def failure_text(problem, ext, lo):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError) as excinfo:
            sweep_block(problem, ext, None, lo)
    return str(excinfo.value)


def texts_by_route(monkeypatch, problem, ext, lo):
    texts = {}
    for route in ROUTES:
        force_sweep_path(monkeypatch, route)
        texts[route] = failure_text(problem, ext, lo)
    return texts


def test_newton_failure_raises_identical_text_on_every_route(monkeypatch):
    # dt = 5: two Newton iterations cannot converge.  Five of the six
    # components fail at step 1, the sixth does not: the message names
    # the lowest failing step, how many failed *there*, the block start.
    problem = BrusselatorProblem(9, t_end=40, n_steps=8, newton_max_iter=2)
    state = problem.initial_state(3, 9)
    ext = padded(state.traj, problem.initial_halo(2), problem.initial_halo(9))
    with pytest.raises(RuntimeError) as excinfo:
        reference_sweep(problem, ext, None)
    want = str(excinfo.value).replace("starting at 0", "starting at 3")
    assert "on 5 component(s) at step 1 (block starting at 3)" in want
    texts = texts_by_route(monkeypatch, problem, ext, 3)
    assert set(texts.values()) == {want}, texts

    # Through the public call, too.
    for route in ROUTES:
        force_sweep_path(monkeypatch, route)
        with pytest.raises(RuntimeError) as excinfo:
            problem.iterate(
                state, problem.initial_halo(2), problem.initial_halo(9)
            )
        assert str(excinfo.value) == want


def test_singular_jacobian_is_unconverged_on_every_route(monkeypatch):
    # dt = 1, c = 0.5, (u, v) = (2, 3): j11 j22 = -36 = j12 j21 exactly,
    # so |det| < 1e-300 at pass 0 of step 1, whose residual is not zero.
    problem = BrusselatorProblem(1, t_end=4.0, n_steps=4, alpha=0.125)
    assert problem.dt == 1.0 and problem.c == 0.5
    traj = np.empty((1, 2, 5))
    traj[0, 0], traj[0, 1] = 2.0, 3.0
    edge = problem.initial_halo(-1)
    ext = padded(traj, edge, edge)
    texts = texts_by_route(monkeypatch, problem, ext, 0)
    assert set(texts.values()) == {
        "brusselator Newton failed on 1 component(s) at step 1 "
        "(block starting at 0); reduce dt or raise newton_max_iter"
    }, texts


def non_finite_halo(value):
    """Four components whose left halo is ``value`` at step 3."""
    problem = BrusselatorProblem(4, t_end=1.0, n_steps=5)
    state = problem.initial_state(0, 4)
    left, right = problem.initial_halo(-1), problem.initial_halo(4)
    left[0, 3] = value
    return problem, padded(state.traj, left, right)


def test_non_finite_input_ends_in_the_same_error(monkeypatch):
    # Python floats and C doubles alike overflow to inf / NaN silently:
    # a NaN or infinite halo is the same Newton failure on both paths,
    # with no floating-point warning anywhere.
    want = (
        "brusselator Newton failed on 1 component(s) at step 3 "
        "(block starting at 0); reduce dt or raise newton_max_iter"
    )
    for value in (np.nan, np.inf, -np.inf):
        problem, ext = non_finite_halo(value)
        texts = texts_by_route(monkeypatch, problem, ext, 0)
        assert set(texts.values()) == {want}, (value, texts)


def failing_batches():
    """One ``(problem, ext)`` per way a sweep fails: passes exhausted
    beside components converging on the last one, a singular Jacobian
    at pass 0 and on a later pass, and non-finite halos."""
    yield bumped(STEP_3_BUMPS, 3)
    yield bumped(STEP_3_BUMPS, 4)
    yield singular_on_pass_1()
    problem = BrusselatorProblem(1, t_end=4.0, n_steps=4, alpha=0.125)
    traj = np.empty((1, 2, 5))
    traj[0, 0], traj[0, 1] = 2.0, 3.0
    edge = problem.initial_halo(-1)
    yield problem, padded(traj, edge, edge)
    problem = BrusselatorProblem(9, t_end=40, n_steps=8, newton_max_iter=2)
    state = problem.initial_state(3, 9)
    yield problem, padded(
        state.traj, problem.initial_halo(2), problem.initial_halo(9)
    )
    for value in (np.nan, np.inf, -np.inf):
        yield non_finite_halo(value)


@pytest.mark.parametrize("damping", [1.0, 0.5])
def test_both_paths_leave_the_same_bytes_behind_a_failure(damping):
    # A failing sweep raises the same text on both paths and leaves the
    # same state behind, and so do the loader's own probe batches.
    compiled, status = compiled_kernel()
    if compiled is None:
        pytest.skip(status)
    cases = [
        (p, (BrusselatorState(0, ext[1:-1]), ext[0], ext[-1]))
        for p, ext in failing_batches()
    ]
    for problem, args in cases + _compiled._probe_cases("brusselator"):
        problem.newton = dataclasses.replace(problem.newton, damping=damping)
        want = _compiled._trace(None, problem, args)
        assert _compiled._trace(compiled, problem, args) == want


#: The NaN this machine's arithmetic makes (``inf - inf``): a NaN drawn
#: into a block carries that payload, so where two NaNs meet, the operand
#: order the C compiler picked cannot show in the bits.
MACHINE_NAN = float("inf") - float("inf")


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 300),
    n_steps=st.integers(1, 8),
    skip=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_both_paths_agree_bitwise_on_any_block(n, n_steps, skip, seed):
    # Blocks of 1-300 components, now and then skipping (last residuals
    # on both sides of the threshold, streaks due their refresh or not,
    # each edge's last halo the same or moved), ±0.0, NaN and ±inf in the
    # trajectories and the halos: new state, work, residuals, their max
    # and sum, the skip bookkeeping and the failure, as bytes.
    compiled, status = compiled_kernel()
    if compiled is None:
        pytest.skip(status)
    problem = BrusselatorProblem(
        n, t_end=1.0, n_steps=n_steps, skip_converged=skip,
        skip_threshold=0.05, refresh_period=3,
    )
    rng = np.random.default_rng(seed)
    traj = problem.initial_traj(0, n)
    traj += rng.normal(scale=0.05, size=traj.shape)
    halos = [problem.initial_halo(-1), problem.initial_halo(n)]
    for values in (traj.reshape(-1), *(h.reshape(-1) for h in halos)):
        special = rng.random(values.size) < 0.01
        values[special] = rng.choice(
            [0.0, -0.0, MACHINE_NAN, np.inf, -np.inf], int(special.sum())
        )
    state = BrusselatorState(0, traj)
    if skip:
        loud = rng.random(n) < 0.2
        state.prev_res = rng.uniform(0.0, 0.05, n) + 0.05 * loud
        state.skip_streak = rng.integers(0, 4, n).astype(float)
        state.last_left_halo, state.last_right_halo = (
            h.copy() if rng.random() < 0.5 else np.ones_like(h) for h in halos
        )
    args = (state, *halos)
    # A copied halo that holds an infinity is measured against itself.
    with np.errstate(invalid="ignore"):
        want = _compiled._trace(None, problem, args)
        assert _compiled._trace(compiled, problem, args) == want


def state_fields(state):
    """``state``'s fields, in order."""
    return [getattr(state, f.name) for f in dataclasses.fields(state)]


def state_bytes(state):
    """Every field of ``state`` as bytes (a number or None as its repr)."""
    return [
        v.tobytes() if isinstance(v, np.ndarray) else repr(v).encode()
        for v in state_fields(state)
    ]


@pytest.mark.parametrize("path", ROUTES)
def test_a_newton_failure_leaves_the_state_untouched(monkeypatch, path):
    # Every way a sweep fails, on a block that carries skip bookkeeping:
    # the block, its last residuals, its streaks and the halos it kept
    # are the same objects holding the same bytes after the raise.
    force_sweep_path(monkeypatch, path)
    for problem, ext in failing_batches():
        problem = copy.copy(problem)
        problem.skip_converged = True
        n = ext.shape[0] - 2
        left, right = ext[0].copy(), ext[-1].copy()
        state = BrusselatorState(
            0,
            ext[1:-1].copy(),
            np.full(n, 2.0 * problem.skip_threshold),
            np.arange(n, dtype=float),
            np.ones_like(left),
            right,
        )
        kept, before = state_fields(state), state_bytes(state)
        with pytest.raises(RuntimeError, match="Newton failed"):
            problem.iterate(state, left, right)
        assert all(a is b for a, b in zip(state_fields(state), kept))
        assert state_bytes(state) == before


#: Halos neither path sweeps, for a 5-step problem: (what, halo).  A
#: halo is 2 * (n_steps + 1) C-contiguous float64 values.
BAD_HALOS = [
    ("a float", 1.0),
    ("a NumPy scalar", np.float64(1.0)),
    ("a list", [[1.0] * 6, [3.0] * 6]),
    ("one value short", np.ones(11)),
    ("one row", np.ones((1, 6))),
    ("float32", np.ones((2, 6), dtype=np.float32)),
    ("int64", np.ones((2, 6), dtype=np.int64)),
    ("strided", np.ones((2, 12))[:, ::2]),
]


@pytest.mark.parametrize(
    "halo", [h for _, h in BAD_HALOS], ids=[what for what, _ in BAD_HALOS]
)
def test_both_paths_reject_the_same_halos_before_the_state_changes(
    monkeypatch, halo
):
    # On either side, on a first sweep and on one that may skip: the same
    # exception type on both paths, the state untouched.
    problem = BrusselatorProblem(4, t_end=1.0, n_steps=5, skip_converged=True)
    edge = problem.initial_halo(-1)
    raised = set()
    for path in ROUTES:
        force_sweep_path(monkeypatch, path)
        for side, sweeps_before in [(0, 0), (1, 0), (0, 1), (1, 1)]:
            state = problem.initial_state(0, 4)
            for _ in range(sweeps_before):
                problem.iterate(state, edge, edge)
            want = problem.copy_state(state)
            halos = [edge, edge]
            halos[side] = halo
            with pytest.raises((TypeError, ValueError)) as excinfo:
                problem.iterate(state, *halos)
            raised.add(excinfo.type)
            assert state_bytes(state) == state_bytes(want)
    assert len(raised) == 1, raised
