"""Tests for the Brusselator adaptive-skip extension.

The optimisation: components whose own and neighbouring residuals were
below ``skip_threshold`` keep their trajectory without recomputation
(cost 1 unit instead of ~n_steps·newton_iters), with one-hop-per-sweep
reactivation and a periodic safety refresh.  The paper's implementation
plausibly did the equivalent inside its Solve — it is what makes
converged regions nearly free and the residual a sharp load signal.
"""

import struct

import numpy as np
import pytest

from repro.problems.brusselator import BrusselatorProblem


def make(skip=True, **kw):
    defaults = dict(
        n_points=16, t_end=1.0, n_steps=10, skip_converged=skip,
        skip_threshold=1e-8, refresh_period=10,
    )
    defaults.update(kw)
    return BrusselatorProblem(**defaults)


def relax(p, st, sweeps, hl=None, hr=None):
    hl = hl if hl is not None else p.initial_halo(-1)
    hr = hr if hr is not None else p.initial_halo(p.n_components)
    res = None
    for _ in range(sweeps):
        res = p.iterate(st, hl, hr)
    return res


def test_validation():
    with pytest.raises(ValueError):
        make(skip_threshold=0.0)
    with pytest.raises(ValueError):
        make(skip_threshold=float("nan"))
    with pytest.raises(ValueError):
        make(refresh_period=0)


def test_skip_disabled_has_no_bookkeeping():
    p = make(skip=False)
    st = p.initial_state(0, 16)
    relax(p, st, 3)
    assert st.prev_res is None
    assert st.skip_streak is None


def test_converged_components_get_skipped_and_cost_one_unit():
    p = make()
    st = p.initial_state(0, 16)
    relax(p, st, 200)  # fully converged
    res = p.iterate(st, p.initial_halo(-1), p.initial_halo(16))
    # Interior fully quiet: everything skippable (modulo refresh).
    assert np.count_nonzero(res.work == 1.0) > 10
    assert res.local_residual < 1e-8


def test_skip_does_not_change_the_answer():
    ref = make(skip=False)
    st_ref = ref.initial_state(0, 16)
    relax(ref, st_ref, 200)
    p = make()
    st = p.initial_state(0, 16)
    relax(p, st, 200)
    assert np.max(np.abs(st.traj - st_ref.traj)) < 1e-9


def test_halo_change_reactivates_boundary_component():
    p = make()
    st = p.initial_state(0, 16)
    hl = p.initial_halo(-1)
    hr = p.initial_halo(16)
    relax(p, st, 200, hl, hr)
    res_quiet = p.iterate(st, hl, hr)
    assert res_quiet.work[0] == 1.0  # boundary component was skipped
    # Perturb the left halo: the leftmost component must recompute.
    hl_new = hl.copy()
    hl_new[0, :] += 0.05
    res = p.iterate(st, hl_new, hr)
    assert res.work[0] > 1.0
    # Its residual jumps back above the threshold.
    assert res.residuals[0] > p.skip_threshold


def test_skipped_component_can_hold_the_block_residual():
    """A skipped component keeps its previous residual; when that is the
    block's largest, the reported reductions are still NumPy's of the
    arrays, bit for bit."""
    p = make()
    st = p.initial_state(0, 16)
    hl, hr = p.initial_halo(-1), p.initial_halo(16)
    relax(p, st, 200, hl, hr)
    # Component 5 stays quiet but holds the largest residual; every
    # other even component is due its safety refresh.
    st.prev_res[5] = 0.9 * p.skip_threshold
    st.skip_streak[:] = 0
    st.skip_streak[::2] = p.refresh_period
    res = p.iterate(st, hl, hr)
    assert res.work[5] == 1.0 and (res.work[::2] > 1.0).all()
    assert res.residuals[5] == 0.9 * p.skip_threshold
    assert struct.pack("dd", res.local_residual, res.total_work) == struct.pack(
        "dd", float(res.residuals.max()), float(res.work.sum())
    )


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_halo_is_never_quiet(side, bad):
    """A halo whose step-0 value (the one step a sweep never reads) is
    not finite, passed as the same object sweep after sweep, never lets
    the edge component skip; nor does the next finite halo, which is
    measured against it."""
    p = make()
    st = p.initial_state(0, 16)
    halos = {"left": p.initial_halo(-1), "right": p.initial_halo(16)}
    relax(p, st, 200, halos["left"], halos["right"])
    edge = 0 if side == "left" else 15
    clean = halos[side]
    assert p.iterate(st, halos["left"], halos["right"]).work[edge] == 1.0
    halos[side] = clean.copy()
    halos[side][1, 0] = bad
    for _ in range(2):
        res = p.iterate(st, halos["left"], halos["right"])
        assert res.work[edge] > 1.0
    halos[side] = clean.copy()
    assert p.iterate(st, halos["left"], halos["right"]).work[edge] > 1.0
    # The same finite halo again: quiet, and the edge skips once more.
    assert p.iterate(st, halos["left"], halos["right"]).work[edge] == 1.0


def test_reactivation_propagates_one_hop_per_sweep():
    p = make()
    st = p.initial_state(0, 16)
    hl = p.initial_halo(-1)
    hr = p.initial_halo(16)
    relax(p, st, 200, hl, hr)
    hl_new = hl.copy()
    hl_new[0, :] += 0.05
    first = p.iterate(st, hl_new, hr)
    second = p.iterate(st, hl_new, hr)
    # Sweep 1 recomputes component 0; by sweep 2 its change has made
    # component 1 non-skippable too.
    assert first.work[0] > 1.0
    assert second.work[1] > 1.0


def test_refresh_period_forces_recompute():
    p = make(refresh_period=3)
    st = p.initial_state(0, 16)
    relax(p, st, 200)
    hl = p.initial_halo(-1)
    hr = p.initial_halo(16)
    costs = []
    for _ in range(5):
        res = p.iterate(st, hl, hr)
        costs.append(res.work.copy())
    # Within any refresh_period+1 consecutive sweeps, every component
    # was recomputed at least once.
    window = np.array(costs[:4])
    assert np.all((window > 1.0).any(axis=0))


def test_migration_invalidates_skip_state():
    p = make()
    st = p.initial_state(0, 16)
    relax(p, st, 200)
    assert st.prev_res is not None
    payload = p.split(st, 4, "left")
    assert st.prev_res is None
    assert st.skip_streak is None
    p.merge(st, payload, "left")
    assert st.prev_res is None
    # Next sweep recomputes the whole block (no skips on unknown state).
    res = p.iterate(st, p.initial_halo(-1), p.initial_halo(16))
    assert np.all(res.work > 1.0)


def test_skip_saves_work_when_convergence_is_nonuniform():
    """Clamp one side's halo to a perturbed value: near that side the
    relaxation keeps working while the far side converges and skips."""
    p = make(n_points=32, refresh_period=10**6)
    st = p.initial_state(0, 32)
    hl = p.initial_halo(-1)
    hr = p.initial_halo(32)
    relax(p, st, 300, hl, hr)
    # Oscillating left halo: the left region stays busy forever.
    total_skipped = 0
    for k in range(10):
        hl_osc = hl.copy()
        hl_osc[0, :] += 0.02 * ((-1) ** k)
        res = p.iterate(st, hl_osc, hr)
        total_skipped += int(np.count_nonzero(res.work == 1.0))
    assert total_skipped > 5 * 10  # the right region skips repeatedly
