"""repro.guard.plausibility: the post-sweep screen's verdicts, word for word."""

import math

import pytest

from repro.core import SolverConfig
from repro.core.solver import build_chain
from repro.grid import homogeneous_cluster
from repro.guard.plausibility import PlausibilityGuard
from repro.problems import HeatProblem


@pytest.fixture
def screen():
    """``verdict(...)`` of one guard over rank 1 of a small heat chain."""
    problem = HeatProblem(24, t_end=0.05, n_steps=8)
    run = build_chain(
        problem,
        homogeneous_cluster(3, speed=2000.0),
        SolverConfig(tolerance=1e-6),
        model="aiac",
    )
    ctx = run.ranks[1]
    guard = PlausibilityGuard()

    def verdict(value=None, prev=math.inf, residual=math.inf):
        arr = problem.state_array(ctx.state)
        saved = arr.copy()
        if value is not None:
            arr.flat[5] = value
        ctx.prev_residual, ctx.residual = prev, residual
        try:
            return guard._implausible(run, ctx)
        finally:
            arr[...] = saved

    verdict.ctx = ctx
    verdict.guard = guard
    return verdict


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_state_verdict(screen, value):
    assert screen(value) == "non-finite state values"


def test_over_bound_verdict_names_the_peak_and_the_bound(screen):
    assert screen(-3.5e15) == "state magnitude 3.500e+15 exceeds bound 1e+12"
    assert screen(1.0000001e12) == "state magnitude 1.000e+12 exceeds bound 1e+12"
    assert screen(1e12) is None  # the bound itself is in the domain


def test_residual_jump_verdict_and_its_tolerance_floor(screen):
    assert screen(prev=1e-3, residual=5e4) is None  # first sight of the block
    assert (
        screen(prev=1e-3, residual=5e4)
        == "residual jumped 1.000e-03 -> 5.000e+04 in one sweep"
    )
    # Below the tolerance the floor is the tolerance: 1e-6 * 1e6 = 1.0.
    assert screen(prev=1e-9, residual=0.5) is None
    assert (
        screen(prev=1e-9, residual=1.5)
        == "residual jumped 1.000e-09 -> 1.500e+00 in one sweep"
    )
    assert screen(prev=math.inf, residual=5e4) is None
    assert screen(prev=math.nan, residual=5e4) is None


def test_migrated_block_is_exempt_for_one_sweep(screen):
    screen(prev=1e-3, residual=1e-3)
    screen.ctx.lo += 1  # a migration moved the block's lower bound
    assert screen(prev=1e-3, residual=5e4) is None
    assert screen.guard._block == {1: (screen.ctx.lo, screen.ctx.hi)}
    assert (
        screen(prev=1e-3, residual=5e4)
        == "residual jumped 1.000e-03 -> 5.000e+04 in one sweep"
    )
    # The value screens come first and leave the block record alone.
    screen.ctx.hi -= 1
    assert screen(math.nan, prev=1e-3, residual=5e4) == "non-finite state values"
    assert screen.guard._block == {1: (screen.ctx.lo, screen.ctx.hi + 1)}
