"""Tests for the Problem base class helpers and IterationResult."""

from dataclasses import fields

import numpy as np
import pytest

from repro.problems import BrusselatorProblem, HeatProblem, SyntheticProblem
from repro.problems.base import IterationResult, padded


def test_iteration_result_aligns_shapes():
    with pytest.raises(ValueError, match="align"):
        IterationResult.from_arrays(np.zeros(3), np.zeros(2))


def test_iteration_result_metrics():
    res = IterationResult.from_arrays(
        np.array([0.1, 0.5, 0.2]), np.array([1.0, 2.0, 3.0])
    )
    assert res.local_residual == 0.5
    assert res.total_work == 6.0
    assert type(res.local_residual) is type(res.total_work) is float


def test_iteration_result_empty_block():
    res = IterationResult.from_arrays(np.zeros(0), np.zeros(0))
    assert res.local_residual == 0.0
    assert res.total_work == 0.0


def test_check_side():
    prob = SyntheticProblem(np.full(4, 0.5))
    assert prob.check_side("left") == "left"
    with pytest.raises(ValueError, match="side"):
        prob.check_side("up")


def test_default_payload_edge_halo_matches_halo_format():
    """For array-per-component problems, the default implementation's
    output must be shape-compatible with halo_out."""
    prob = HeatProblem(10, t_end=0.05, n_steps=8)
    state = prob.initial_state(0, 10)
    payload = prob.split(state, 4, "left")
    first = prob.payload_edge_halo(payload, "first")
    last = prob.payload_edge_halo(payload, "last")
    reference_halo = prob.halo_out(state, "left")
    assert first.shape == reference_halo.shape
    assert last.shape == reference_halo.shape
    assert np.array_equal(last, payload[-1:])
    with pytest.raises(ValueError, match="edge"):
        prob.payload_edge_halo(payload, "middle")


def test_brusselator_payload_edge_halo_drops_component_axis():
    prob = BrusselatorProblem(10, t_end=1.0, n_steps=8)
    state = prob.initial_state(0, 10)
    payload = prob.split(state, 4, "right")
    halo = prob.payload_edge_halo(payload, "first")
    assert halo.shape == (2, prob.n_steps + 1)
    assert np.array_equal(halo, payload[0])
    with pytest.raises(ValueError):
        prob.payload_edge_halo(payload, "center")


def _halo_cases():
    n_steps = 6
    synthetic = SyntheticProblem(np.full(5, 0.5))
    heat = HeatProblem(5, t_end=0.05, n_steps=n_steps)
    brusselator = BrusselatorProblem(5, t_end=1.0, n_steps=n_steps)
    cases = []
    for problem in (synthetic, heat, brusselator):
        state = problem.initial_state(0, 5)
        cases.append(
            pytest.param(
                problem.state_array(state),
                problem.initial_halo(-1),
                problem.halo_out(state, "right"),
                id=problem.name,
            )
        )
    e = synthetic.state_array(synthetic.initial_state(0, 5))
    cases.append(pytest.param(e, 9.0, 7.0, id="synthetic-scalar-halos"))
    cases.append(pytest.param(e[:1], np.array([9.0]), 7.0, id="one-component"))
    cases.append(pytest.param(e > 2.0, True, False, id="brusselator-quiet-mask"))
    return cases


@pytest.mark.parametrize("old, left, right", _halo_cases())
def test_padded_places_every_problems_halos(old, left, right):
    """Scalar, ``(1,)``, ``(1, n_steps+1)`` and ``(2, n_steps+1)`` halos
    all land in the first/last row; ``padded(e, np.array([9.0]), ...)``
    on 1-D state used to raise "setting an array element with a
    sequence"."""
    ext = padded(old, left, right)
    assert ext.shape == (old.shape[0] + 2,) + old.shape[1:]
    assert ext.dtype == old.dtype
    assert np.array_equal(ext[1:-1], old)
    row = (1,) + old.shape[1:]
    assert np.array_equal(ext[:1], np.broadcast_to(left, row))
    assert np.array_equal(ext[-1:], np.broadcast_to(right, row))
    assert np.shares_memory(ext[:-2], ext) and np.shares_memory(ext[2:], ext)


@pytest.mark.parametrize(
    "problem",
    [
        HeatProblem(6, t_end=0.05, n_steps=4),
        SyntheticProblem(np.linspace(0.1, 0.9, 6)),
        BrusselatorProblem(6, t_end=1.0, n_steps=4, skip_converged=True),
    ],
    ids=lambda problem: problem.name,
)
def test_every_problem_keeps_the_one_block_layout(problem):
    """The block contract the solver, the migrations, the checkpoints and
    the integrity layer share: ``lo`` plus one array whose axis 0 is the
    component and whose trailing shape is ``component_shape``."""
    state = problem.initial_state(1, 6)
    problem.iterate(state, problem.initial_halo(0), problem.initial_halo(6))
    assert problem.state_array(state) is state.traj
    assert state.traj.shape == (5,) + problem.component_shape

    # A checkpoint is a copy of every field (the Brusselator's skip
    # bookkeeping, populated by the sweep, included) sharing no memory.
    snapshot = problem.copy_state(state)
    assert type(snapshot) is type(state)
    for field in fields(state):
        mine, theirs = getattr(state, field.name), getattr(snapshot, field.name)
        if isinstance(mine, np.ndarray):
            assert mine.tobytes() == theirs.tobytes()
            assert not np.shares_memory(mine, theirs)
        else:
            assert mine == theirs

    before, lo = state.traj.tobytes(), state.lo
    for side in ("left", "right"):
        payload = problem.split(state, 2, side)
        assert problem.n_local(state) == 3
        problem.merge(state, payload, side)
        assert state.traj.tobytes() == before and state.lo == lo

    for block in ((3, 3), (-1, 2), (4, 7)):
        with pytest.raises(ValueError, match="invalid block"):
            problem.initial_state(*block)
    shape = problem.component_shape
    for bad in (np.float64(0.5), np.zeros((2,) + shape + (1,))):
        with pytest.raises(ValueError, match="payload shape"):
            problem.merge(state, bad, "left")
    assert state.traj.tobytes() == before and state.lo == lo
