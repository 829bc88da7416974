"""Property tests: the lockstep chain sweep ≡ per-rank iterate().

The lockstep replay's correctness rests on one claim: a problem's
:class:`~repro.problems.base.ChainSweeper`, which runs the problem's own
``iterate`` once over the whole chain ``[0, N)`` between the domain-edge
halos, produces for every rank *bit-identical* residual / work /
solution to the per-rank ``iterate()`` calls the event-driven solver
makes.  Hypothesis drives that claim across ragged partitions (including
one-component and empty blocks), the Brusselator's adaptive-skip options
(threshold, refresh cadence), and synthetic chain lengths on both sides
of eight components (the whole chain's work sum and a rank's block's may
take different regimes of NumPy's pairwise sum), on both sweep paths
(compiled and Python); the Brusselator's sweep paths themselves are
pinned in ``tests/test_brusselator_sweep_routes.py``.

The scalar reference below replays exactly what a synchronous round
does: gather every rank's previous-sweep boundary trajectories (walking
past empty blocks, like the solver's halo wiring after a full
migration), then iterate each block against them.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.problems.brusselator import BrusselatorProblem
from repro.problems.heat import HeatProblem
from repro.problems.synthetic import SyntheticProblem
from tests.conftest import SWEEP_PATHS, force_sweep_path


def _halo(problem, blocks, states, rank, side):
    """Previous-sweep halo for ``rank``, walking past empty blocks."""
    j = blocks[rank][0] - 1 if side == "left" else blocks[rank][1]
    if j < 0 or j >= problem.n_components:
        return problem.initial_halo(j)
    owner = next(q for q, (lo, hi) in enumerate(blocks) if lo <= j < hi)
    return problem.halo_out(
        states[owner], "right" if side == "left" else "left"
    )


def assert_batched_matches_scalar(problem, blocks, n_sweeps):
    sweeper = problem.batched_chain_sweeper(blocks)
    states = {
        r: problem.initial_state(lo, hi)
        for r, (lo, hi) in enumerate(blocks)
        if hi > lo
    }
    for _ in range(n_sweeps):
        # Jacobi round: all halos are read before any state mutates.
        halos = {
            r: (
                _halo(problem, blocks, states, r, "left"),
                _halo(problem, blocks, states, r, "right"),
            )
            for r in states
        }
        residual, work = sweeper.sweep()
        for r, state in states.items():
            res = problem.iterate(state, *halos[r])
            assert res.local_residual == residual[r]
            assert res.total_work == work[r]
            assert np.array_equal(
                problem.solution(state), sweeper.solution_block(r)
            )
        for r, (lo, hi) in enumerate(blocks):
            if hi == lo:  # a rank that migrated everything away
                assert residual[r] == 0.0 and work[r] == 0.0
                assert sweeper.solution_block(r).size == 0


@st.composite
def chain_partitions(draw, n_min=4, n_max=18, max_ranks=5):
    """A component count and a contiguous tiling of it, empties allowed."""
    n = draw(st.integers(n_min, n_max))
    n_ranks = draw(st.integers(1, max_ranks))
    cuts = sorted(
        draw(
            st.lists(
                st.integers(0, n), min_size=n_ranks - 1, max_size=n_ranks - 1
            )
        )
    )
    bounds = [0, *cuts, n]
    return n, list(zip(bounds[:-1], bounds[1:]))


@settings(max_examples=40, deadline=None)
@given(
    part=chain_partitions(),
    n_steps=st.integers(4, 10),
    skip=st.booleans(),
    skip_threshold=st.sampled_from([1e-2, 1e-4]),
    refresh_period=st.integers(1, 4),
    n_sweeps=st.integers(1, 6),
)
def test_brusselator_batched_equals_scalar(
    part, n_steps, skip, skip_threshold, refresh_period, n_sweeps,
):
    n, blocks = part
    # t_end/n_steps keeps dt <= 0.25: large implicit Euler steps make
    # the inner Newton diverge (legitimately, in both paths).
    problem = BrusselatorProblem(
        n,
        t_end=1.0,
        n_steps=n_steps,
        skip_converged=skip,
        skip_threshold=skip_threshold,
        refresh_period=refresh_period,
    )
    assert_batched_matches_scalar(problem, blocks, n_sweeps)


def test_brusselator_scalar_tail_and_empty_blocks():
    # Deterministic companion to the property test: blocks small enough
    # for the scalar sweep, plus one-component and empty blocks
    # in one partition, swept long enough for skipping to engage.
    problem = BrusselatorProblem(
        12,
        t_end=1.0,
        n_steps=6,
        skip_converged=True,
        skip_threshold=1e-3,
        refresh_period=3,
    )
    blocks = [(0, 1), (1, 1), (1, 5), (5, 6), (6, 6), (6, 12)]
    assert_batched_matches_scalar(problem, blocks, 25)


@settings(max_examples=25, deadline=None)
def assert_on_both_sweep_paths(problem, blocks, n_sweeps):
    """:func:`assert_batched_matches_scalar` on each sweep path."""
    for path in SWEEP_PATHS:
        with pytest.MonkeyPatch.context() as monkeypatch:
            force_sweep_path(monkeypatch, path)
            assert_batched_matches_scalar(problem, blocks, n_sweeps)


@given(part=chain_partitions(), n_sweeps=st.integers(1, 5))
def test_heat_batched_equals_scalar(part, n_sweeps):
    n, blocks = part
    problem = HeatProblem(n, n_steps=12)
    assert_on_both_sweep_paths(problem, blocks, n_sweeps)


@settings(max_examples=40, deadline=None)
@given(
    part=chain_partitions(n_max=40, max_ranks=6),
    data=st.data(),
    coupling=st.sampled_from([0.0, 0.3, 0.9]),
    costs=st.sampled_from([(1.0, 4.0), (0.1, 0.7)]),
    n_sweeps=st.integers(1, 8),
)
def test_synthetic_batched_equals_scalar(part, data, coupling, costs, n_sweeps):
    # Chains of up to 40 components: the chain's work sum and a block's
    # may be taken in order (below 8 values) or in eight partial sums.
    n, blocks = part
    rates = data.draw(
        st.lists(st.floats(0.0, 0.99), min_size=n, max_size=n), label="rates"
    )
    base_cost, active_cost = costs
    problem = SyntheticProblem(
        rates,
        coupling=coupling,
        active_threshold=0.05,
        base_cost=base_cost,
        active_cost=active_cost,
    )
    assert_on_both_sweep_paths(problem, blocks, n_sweeps)

