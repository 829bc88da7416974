"""Differential tests: the lockstep SISC replay vs the reference DES run.

``run_sisc_batched`` promises *bit-identical* results to ``run_sisc``
whenever its preconditions hold.  These tests hold it to that promise
across the tricky regimes — heterogeneous speeds, forced exact-time
ties on homogeneous clusters, 1–2 rank chains, horizon/abort
truncations, permuted host orders — comparing not just the numerical
answer but the tracer's span records and the dispatched-event count;
the replay takes no guard, and a guarded ``run_sisc`` gives the
replay's fingerprint.  On a host where no compiled round
loads, the NumPy oracle stands in for it (``replay_round``), so each
test still runs the replay.
"""

import os
import random
import sys
from dataclasses import replace

import numpy as np
import pytest

from repro.core import SolverConfig
from repro.core.solver import build_chain, run_chain
from repro.grid import homogeneous_cluster
from repro.grid.host import Host
from repro.grid.link import Link
from repro.grid.network import Network
from repro.grid.platform import Platform
from repro.grid.traces import MarkovTrace
from repro.guard import GuardConfig, InvariantMonitor
from repro.models import run_sisc, run_sisc_batched
from repro.analysis.perf import run_fingerprint
from repro.problems import SyntheticProblem
from repro.problems.brusselator import BrusselatorProblem
from repro.problems.heat import HeatProblem
from repro.workloads import ScaleScenario
from tests.conftest import SWEEP_PATHS, force_sweep_path, use_kernel

pytestmark = pytest.mark.usefixtures("replay_round")


def hetero_platform(
    speeds=(200.0, 130.0, 100.0, 170.0), latency=0.02, bandwidth=1e6
):
    net = Network(Link(latency=latency, bandwidth=bandwidth))
    hosts = [Host(f"h{i}", speed=s) for i, s in enumerate(speeds)]
    return Platform(hosts=hosts, network=net)


def varying_platform():
    """``hetero_platform``'s hosts, the odd ones' availability and the
    link's latency varying (seeded Markov traces): the replay then takes
    durations and transfer times from Python, round by round."""
    hosts = [
        Host(f"h{i}", speed=s, trace=MarkovTrace(np.random.default_rng(i), 0.5))
        if i % 2 else Host(f"h{i}", speed=s)
        for i, s in enumerate((200.0, 130.0, 100.0, 170.0))
    ]
    latency = MarkovTrace(np.random.default_rng(9), 0.3)
    link = Link(latency=0.02, bandwidth=1e6, latency_trace=latency)
    return Platform(hosts=hosts, network=Network(link))


def hard_problem(n=64):
    return SyntheticProblem.with_hard_region(n, easy_rate=0.5, hard_rate=0.9)


def assert_same_run(ref, fast):
    """Field-by-field bit-identity of two RunResults."""
    assert fast.meta["engine"] == "lockstep"  # no silent fallback
    assert ref.converged == fast.converged
    assert ref.time == fast.time
    assert list(ref.iterations) == list(fast.iterations)
    assert list(ref.work) == list(fast.work)
    for a, b in zip(ref.solution_blocks, fast.solution_blocks):
        assert np.array_equal(a, b)
    assert list(ref.final_partition) == list(fast.final_partition)
    assert list(ref.residuals_at_stop) == list(fast.residuals_at_stop)
    # Tracer span records (frozen dataclasses): same spans, same order.
    assert ref.tracer.iterations == fast.tracer.iterations
    assert ref.tracer.residuals == fast.tracer.residuals
    assert ref.tracer.messages == fast.tracer.messages
    assert ref.tracer.idles == fast.tracer.idles
    for r in range(ref.n_ranks):
        assert ref.tracer.busy_time_of(r) == fast.tracer.busy_time_of(r)
        assert ref.tracer.idle_time_of(r) == fast.tracer.idle_time_of(r)
    assert ref.tracer.n_messages() == fast.tracer.n_messages()
    skip = ("engine", "events_dispatched")
    assert {k: v for k, v in ref.meta.items() if k not in skip} == {
        k: v for k, v in fast.meta.items() if k not in skip
    }
    assert run_fingerprint(ref) == run_fingerprint(fast)


def on_both_paths(argname, values, ids=None):
    """Parametrise ``argname`` over ``values`` and both :data:`SWEEP_PATHS`
    (a test takes ``path`` and forces it): the compiled round keeps each
    value's own id, the NumPy oracle round's adds ``-python``."""
    ids = ids or [str(v) for v in values]
    return pytest.mark.parametrize(
        f"{argname}, path",
        [
            pytest.param(v, path, id=i if path == "compiled" else f"{i}-python")
            for v, i in zip(values, ids)
            for path in SWEEP_PATHS
        ],
    )


SCALE_64 = ScaleScenario(n_ranks=64, components_per_rank=100)

CASES = {
    "hetero": (
        hard_problem(),
        hetero_platform(),
        SolverConfig(tolerance=1e-8),
    ),
    # Homogeneous + equal blocks: every rank ties every round, the
    # all-vectorised tie-resolution path.
    "homo_ties": (
        hard_problem(),
        homogeneous_cluster(8, speed=500.0),
        SolverConfig(tolerance=1e-8),
    ),
    "single_rank": (
        hard_problem(16),
        homogeneous_cluster(1, speed=500.0),
        SolverConfig(tolerance=1e-8),
    ),
    "two_ranks": (
        hard_problem(18),
        hetero_platform(speeds=(150.0, 100.0)),
        SolverConfig(tolerance=1e-8),
    ),
    "persistence": (
        hard_problem(),
        hetero_platform(),
        SolverConfig(tolerance=1e-6, persistence=3),
    ),
    "horizon": (
        hard_problem(),
        hetero_platform(),
        SolverConfig(tolerance=1e-12, max_time=2.5),
    ),
    "horizon_ties": (
        hard_problem(),
        homogeneous_cluster(6, speed=400.0),
        SolverConfig(tolerance=1e-12, max_time=1.0),
    ),
    "abort": (
        hard_problem(),
        hetero_platform(),
        SolverConfig(tolerance=1e-12, max_iterations=40),
    ),
    "no_trace": (
        hard_problem(),
        hetero_platform(),
        SolverConfig(tolerance=1e-8, trace=False),
    ),
    "min_sweep_duration": (
        hard_problem(),
        hetero_platform(),
        SolverConfig(tolerance=1e-8, min_sweep_duration=0.05),
    ),
    "uneven_blocks": (
        hard_problem(61),  # 61 over 4 ranks: per-slice reduction path
        hetero_platform(),
        SolverConfig(tolerance=1e-8),
    ),
    # The real PDE problems: their own Newton / linear `iterate` over
    # the whole chain (not the synthetic closed form).
    "brusselator": (
        BrusselatorProblem(24, t_end=1.0, n_steps=8),
        hetero_platform(),
        SolverConfig(tolerance=1e-6),
    ),
    "brusselator_skip": (
        BrusselatorProblem(
            24, t_end=1.0, n_steps=8,
            skip_converged=True, skip_threshold=1e-4, refresh_period=5,
        ),
        hetero_platform(),
        SolverConfig(tolerance=1e-6),
    ),
    "heat": (
        HeatProblem(32, n_steps=10),
        hetero_platform(),
        SolverConfig(tolerance=1e-7),
    ),
    "varying_traces": (
        hard_problem(),
        varying_platform(),
        SolverConfig(tolerance=1e-8),
    ),
    # The synthetic scale point: 64 ranks x 100 components, homogeneous
    # hosts, capped at 30 rounds.
    "scale_64x100": (
        SCALE_64.problem(),
        SCALE_64.platform(),
        replace(SCALE_64.solver_config(), max_iterations=30),
    ),
}


@on_both_paths("name", sorted(CASES))
def test_lockstep_matches_reference(name, path, monkeypatch):
    force_sweep_path(monkeypatch, path)
    problem, platform, cfg = CASES[name]
    ref = run_sisc(problem, platform, cfg)
    fast = run_sisc_batched(problem, platform, cfg)
    assert_same_run(ref, fast)


def test_lockstep_matches_reference_host_order_permutation():
    problem, platform = hard_problem(), hetero_platform()
    cfg = SolverConfig(tolerance=1e-8)
    order = [2, 0, 3, 1]
    ref = run_sisc(problem, platform, cfg, host_order=order)
    fast = run_sisc_batched(problem, platform, cfg, host_order=order)
    assert_same_run(ref, fast)


def _reference_events(problem, platform, cfg):
    """run_sisc, but keeping the simulator to read its event counter."""
    run = build_chain(problem, platform, cfg, model="sisc")
    return run_chain(run), run.sim.n_dispatched


@pytest.mark.parametrize(
    "name", ["hetero", "homo_ties", "two_ranks", "horizon", "abort"]
)
def test_lockstep_event_count_matches_reference(name):
    problem, platform, cfg = CASES[name]
    ref, ref_events = _reference_events(problem, platform, cfg)
    fast = run_sisc_batched(problem, platform, cfg)
    assert fast.meta["engine"] == "lockstep"
    assert fast.meta["events_dispatched"] == ref_events
    assert run_fingerprint(ref) == run_fingerprint(fast)


@on_both_paths("max_time", [0.5, None])
def test_lockstep_matches_reference_when_48_ranks_tie_every_round(
    max_time, path, monkeypatch
):
    """The ``lockstep_sisc`` width, with every end of every round at one
    instant (equal blocks, equal hosts, constant work per component):
    the barrier order then rests wholly on the dispatch-position keys.
    Cut at ``max_time`` mid-run, and run to convergence."""
    force_sweep_path(monkeypatch, path)
    problem = SyntheticProblem.with_hard_region(
        96, easy_rate=0.5, hard_rate=0.9, active_cost=0.0
    )
    platform = homogeneous_cluster(48, speed=500.0)
    cfg = SolverConfig(tolerance=1e-8, max_time=max_time)
    ref, ref_events = _reference_events(problem, platform, cfg)
    fast = run_sisc_batched(problem, platform, cfg)
    assert_same_run(ref, fast)
    assert fast.meta["events_dispatched"] == ref_events
    assert fast.converged == (max_time is None) and max(fast.iterations) > 100
    ends = {}
    for span in fast.tracer.iterations:
        ends.setdefault(span.iteration, set()).add(span.t1)
    assert all(len(t1s) == 1 for t1s in ends.values())


# ----------------------------------------------------------------------
# Runs cut mid-round.  A cut round books only the ranks whose end event
# dispatched, and only their sends; where the cut falls inside the round
# (on an end, on an arrival, between two) decides how many deliveries
# and wait-resumes still ran.
# ----------------------------------------------------------------------
CUT_PLATFORMS = {
    "hetero4": (hard_problem(), hetero_platform()),
    # Equal blocks on equal hosts, eight of them: wide enough that a
    # rank's two neighbours tie (both halos late at the same instant,
    # one wait-resume) while a slower hard-region rank keeps the round
    # open for the cut to fall after them.
    "homo8_ties": (hard_problem(), homogeneous_cluster(8, speed=500.0)),
    "two_ranks": (hard_problem(18), hetero_platform(speeds=(150.0, 100.0))),
}
CUT_BASE = SolverConfig(tolerance=1e-4)


def _cut_configs(problem, platform, n_instants=6, seed=0):
    """Truncations of one run: ``max_time`` exactly on seeded end/arrival
    instants of the uncut trace and midway to the next instant, plus
    ``max_iterations`` x ``persistence`` stops."""
    ref = run_sisc(problem, platform, CUT_BASE)
    instants = sorted(
        {s.t1 for s in ref.tracer.iterations}
        | {m.arrival_time for m in ref.tracer.messages}
    )
    picks = random.Random(seed).sample(range(len(instants) - 1), n_instants)
    cuts = [
        replace(CUT_BASE, max_time=t)
        for i in sorted(picks)
        for t in (instants[i], (instants[i] + instants[i + 1]) / 2)
    ]
    stops = [
        replace(CUT_BASE, max_iterations=m, persistence=p)
        for m in (1, 2, 7)
        for p in (1, 3)
    ]
    return cuts, stops


def _partly_booked(result):
    """Some but not all ranks were accounted in the final round."""
    return len(set(result.iterations)) > 1


def _assert_same_run_and_events(problem, platform, cfg):
    ref, ref_events = _reference_events(problem, platform, cfg)
    fast = run_sisc_batched(problem, platform, cfg)
    assert_same_run(ref, fast)
    assert fast.meta["events_dispatched"] == ref_events, cfg
    return fast


@on_both_paths("name", sorted(CUT_PLATFORMS))
def test_lockstep_matches_reference_at_every_cut(name, path, monkeypatch):
    force_sweep_path(monkeypatch, path)
    problem, platform = CUT_PLATFORMS[name]
    cuts, stops = _cut_configs(problem, platform)
    for cfg in stops:
        _assert_same_run_and_events(problem, platform, cfg)
    runs = [_assert_same_run_and_events(problem, platform, cfg) for cfg in cuts]
    # At least one max_time cut must leave ranks (and their sends)
    # booked in the cut round, or the sweep is not testing that path.
    assert any(_partly_booked(fast) for fast in runs)


def test_lockstep_cut_rounds_without_trace():
    """Aggregates and meta of a partly booked cut round do not depend on
    the record lists being kept."""
    problem, platform = CUT_PLATFORMS["hetero4"]
    cuts, _ = _cut_configs(problem, platform)
    runs = [
        _assert_same_run_and_events(problem, platform, replace(cfg, trace=False))
        for cfg in cuts
    ]
    assert not any(fast.tracer.iterations or fast.tracer.messages for fast in runs)
    assert any(_partly_booked(fast) for fast in runs)


@on_both_paths(
    "speeds",
    [(200.0, 130.0, 100.0, 170.0), (400.0, 100.0, 130.0, 170.0)],
    ids=["speeds0", "speeds1"],
)
def test_lockstep_matches_reference_when_a_halo_lands_on_an_end(
    speeds, path, monkeypatch
):
    """A halo delivered at exactly its receiver's end instant is late or
    not by dispatch key alone.  The latency, on a link whose bandwidth
    adds nothing, is the first round's gap between ranks 0 and 1's ends,
    so rank 0's halo lands on rank 1's end: after rank 1's mid (late),
    or, with rank 0 four times as fast, before it (not late)."""
    force_sweep_path(monkeypatch, path)
    problem, cfg = hard_problem(), SolverConfig(tolerance=1e-4)
    unlagged = run_sisc(problem, hetero_platform(speeds, latency=0.0), cfg)
    first = {s.rank: s.t1 for s in unlagged.tracer.iterations if s.iteration == 1}
    gap = first[1] - first[0]
    platform = hetero_platform(speeds, latency=gap, bandwidth=1e300)
    fast = _assert_same_run_and_events(problem, platform, cfg)
    ends = {(s.rank, s.iteration): s.t1 for s in fast.tracer.iterations}
    assert fast.tracer.messages[0].arrival_time == ends[1, 1]
    for t in sorted(set(ends.values()))[:12:3]:
        _assert_same_run_and_events(problem, platform, replace(cfg, max_time=t))


@on_both_paths(
    "speeds",
    [(200.0, 400.0, 100.0, 170.0), (200.0, 130.0, 100.0, 170.0)],
    ids=["lands_before", "lands_after"],
)
def test_lockstep_matches_reference_when_a_run_stops_on_an_end_a_halo_lands_on(
    speeds, path, monkeypatch
):
    """Every rank is satisfied after one sweep, so the run stops at round
    1's last end, rank 2's.  The latency is round 1's gap between ranks 1
    and 2's ends, so rank 1's halo lands on that end: it dispatched iff
    rank 1's end came before rank 2's mid (0.2 s against 0.24 s with
    rank 1 at speed 400; at 130 it ends at 0.615 s, after)."""
    force_sweep_path(monkeypatch, path)
    problem, cfg = hard_problem(), SolverConfig(tolerance=1e3, persistence=1)
    unlagged = run_sisc(problem, hetero_platform(speeds, latency=0.0), cfg)
    first = {s.rank: s.t1 for s in unlagged.tracer.iterations if s.iteration == 1}
    gap = first[2] - first[1]
    platform = hetero_platform(speeds, latency=gap, bandwidth=1e300)
    fast = _assert_same_run_and_events(problem, platform, cfg)
    assert fast.converged and fast.iterations == [1, 1, 1, 1]
    assert fast.time == first[2]
    landing = [m for m in fast.tracer.messages if (m.src_rank, m.dst_rank) == (1, 2)]
    assert [m.arrival_time for m in landing] == [fast.time]


def _assert_guard_parity(problem, platform, cfg):
    """A guarded ``run_sisc`` is the unguarded replay's run: the guard
    reads without writing (no rollback, a passing halt oracle)."""
    guard = InvariantMonitor(GuardConfig(check_every=16))
    ref = run_sisc(problem, platform, cfg, guard=guard)
    fast = run_sisc_batched(problem, platform, cfg)
    assert fast.meta["engine"] == "lockstep"
    assert guard.checks_run > 0
    assert guard.verify_halt()
    assert not guard.divergence_events and not guard.plausibility_events
    assert run_fingerprint(ref) == run_fingerprint(fast)


@on_both_paths("name", ["hetero", "homo_ties", "abort"])
def test_lockstep_guard_parity(name, path, monkeypatch):
    """A guarded reference run and the replay agree bit for bit."""
    force_sweep_path(monkeypatch, path)
    _assert_guard_parity(*CASES[name])


@on_both_paths("name", ["hetero4", "homo8_ties"])
def test_lockstep_guard_parity_at_every_cut(name, path, monkeypatch):
    force_sweep_path(monkeypatch, path)
    problem, platform = CUT_PLATFORMS[name]
    cuts, _ = _cut_configs(problem, platform)
    for cfg in cuts:
        _assert_guard_parity(problem, platform, cfg)


def test_lockstep_brusselator_fingerprint_at_256_ranks(monkeypatch):
    """The scale ladder's Brusselator point at CI size:
    256 ranks of real PDE numerics, lockstep vs event-driven, identical
    fingerprint at the round cap — and the lockstep run's the same on
    both Brusselator sweep paths."""
    from dataclasses import replace

    from repro.workloads import ScaleScenario

    scenario = ScaleScenario(
        problem_kind="brusselator", n_ranks=256, components_per_rank=4
    )
    cfg = replace(scenario.solver_config(), max_iterations=12)
    ref = run_sisc(scenario.problem(), scenario.platform(), cfg)
    for path in SWEEP_PATHS:
        force_sweep_path(monkeypatch, path)
        fast = run_sisc_batched(scenario.problem(), scenario.platform(), cfg)
        assert fast.meta["engine"] == "lockstep"
        assert run_fingerprint(ref) == run_fingerprint(fast), path


def test_lockstep_sisc_fingerprint_through_its_batched_rounds(monkeypatch):
    """The ``lockstep_sisc`` workload's run (48 ranks x 6 components)
    capped at 260 rounds — the rounds whose chain sweeps are widest —
    pinned literally on both Brusselator sweep paths."""
    from dataclasses import replace

    from repro.workloads import ScaleScenario

    scenario = ScaleScenario(
        problem_kind="brusselator", n_ranks=48, components_per_rank=6
    )
    cfg = replace(scenario.solver_config(), max_iterations=260)
    for path in SWEEP_PATHS:
        force_sweep_path(monkeypatch, path)
        fast = run_sisc_batched(scenario.problem(), scenario.platform(), cfg)
        assert fast.meta["engine"] == "lockstep"
        assert max(fast.iterations) == 260
        assert run_fingerprint(fast) == (
            "03259c30dc7e9ebe818d939fa6736b9b60e0f2c349f41caab6bc0b4b942ecbd2"
        ), path


class CountingSweeper:
    """A chain sweeper that adds up the work units its sweeps report."""

    def __init__(self, inner):
        self.inner = inner
        self.work_units = 0.0

    def sweep(self):
        residual, work = self.inner.sweep()
        self.work_units += float(work.sum())
        return residual, work

    def __getattr__(self, name):
        return getattr(self.inner, name)


def test_lockstep_sisc_body_is_pinned_to_its_last_round(monkeypatch):
    """The whole ``lockstep_sisc`` body (48 ranks x 6 components, 1 900
    rounds) on the compiled sweep: the late rounds, where most
    components skip, included.  Its fingerprint and the work units its
    sweeps report, by value."""
    from repro.workloads import ScaleScenario

    force_sweep_path(monkeypatch, "compiled")
    scenario = ScaleScenario(
        problem_kind="brusselator", n_ranks=48, components_per_rank=6
    )
    problem = scenario.problem()
    sweepers = []

    def counted(blocks):
        sweepers.append(
            CountingSweeper(type(problem).batched_chain_sweeper(problem, blocks))
        )
        return sweepers[-1]

    problem.batched_chain_sweeper = counted
    fast = run_sisc_batched(
        problem, scenario.platform(), scenario.solver_config()
    )
    assert fast.meta["engine"] == "lockstep" and fast.converged
    assert max(fast.iterations) == 1900
    assert [s.work_units for s in sweepers] == [3854394.0]
    assert run_fingerprint(fast) == (
        "42f8201463e45fdbac9557dd742cabb7d43b40d13cedd1f1ece493e4ac2d2f4a"
    )


#: Frames entered under ``repro/`` per lockstep round, measured on
#: CPython 3.11, by sweep path.  A complete round's arithmetic is one
#: call, ``lockstep_round`` (on the ``python`` path the NumPy oracle,
#: whose ``_ends`` and ``_stop_scan`` count); only the run's last round
#: enters ``_stop_scan``, the byte counters' ``_repeat_add`` and
#: ``_finish``, which counts its events with the round's rule in a few
#: array expressions (17.38 / 10.38 while the round was a ``_round``
#: wrapper in ``models/lockstep.py``; 17.48 / 10.48 while ``_finish``
#: compared nested dispatch-key tuples; 23.46 / 18.46 while every round
#: booked itself through Python helpers, 24.46 / 25.46 with the NumPy
#: skip mask around the compiled sweep).
ROUND_FRAMES = {"python": 16.38, "compiled": 9.38}


@pytest.mark.parametrize("path", sorted(ROUND_FRAMES))
def test_frames_entered_per_lockstep_round_stay_under_the_ceiling(
    path, monkeypatch
):
    """The lockstep round's fixed cost, as a count that repeats exactly:
    frames entered under ``repro/`` by ``run_sisc_batched`` on a small
    Brusselator chain, per round, against what each sweep path measured
    (``ROUND_FRAMES``) plus 2 %.  A helper that comes back into the
    round (a skip mask, a streak, a padded copy) fails here by name."""
    from repro.workloads import ScaleScenario

    force_sweep_path(monkeypatch, path)
    scenario = ScaleScenario(
        problem_kind="brusselator", n_ranks=8, components_per_rank=4
    )
    problem, platform = scenario.problem(), scenario.platform()
    marker = os.sep + "repro" + os.sep
    frames = 0

    def count(frame, event, arg):
        nonlocal frames
        if event == "call" and marker in frame.f_code.co_filename:
            frames += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = run_sisc_batched(problem, platform, scenario.solver_config())
    finally:
        sys.setprofile(previous)
    assert result.meta["engine"] == "lockstep" and result.converged
    assert frames / max(result.iterations) <= ROUND_FRAMES[path] * 1.02


def test_lockstep_fallback_is_observable(caplog):
    """A fallback must be loud: logged, counted on the metrics registry
    with the gate's reason string — and still fingerprint-identical."""
    import logging

    from repro.obs import MetricsRegistry

    problem, platform = hard_problem(), hetero_platform()
    cfg = SolverConfig(tolerance=1e-8, detection="token_ring")
    registry = MetricsRegistry()
    with caplog.at_level(logging.INFO, logger="repro.models.lockstep"):
        fast = run_sisc_batched(problem, platform, cfg, metrics=registry)
    assert fast.meta.get("engine") != "lockstep"
    counter = registry.counter(
        "lockstep.fallback_reason",
        reason="detection:token_ring",
        problem=problem.name,
    )
    assert counter.value == 1
    assert any(
        "falling back to the event-driven engine" in r.getMessage()
        for r in caplog.records
    )
    ref = run_sisc(problem, platform, cfg)
    assert run_fingerprint(ref) == run_fingerprint(fast)


#: reason -> (problem, platform, config), one run that forces each
#: fallback of ``run_sisc_batched``.  ``empty_block`` has
#: no row: the replay partitions with a fresh ``PartitionRegistry``, which
#: gives every rank at least one component.
FALLBACKS = {
    # A host with no compiled round (no ``cc``, or a module that failed
    # its probe): forced below by a loader that found no module.
    "no_compiled_round": (
        hard_problem(),
        hetero_platform(),
        SolverConfig(tolerance=1e-8),
    ),
    "detection:token_ring": (
        hard_problem(),
        hetero_platform(),
        SolverConfig(tolerance=1e-8, detection="token_ring"),
    ),
}


@pytest.mark.parametrize("reason", FALLBACKS)
def test_lockstep_fallback_reason_is_forced(reason, monkeypatch):
    """Each fallback branch, forced: counted under its reason string and
    nothing else, and the run is ``run_sisc``'s."""
    from repro.obs import MetricsRegistry

    if reason == "no_compiled_round":
        use_kernel(monkeypatch, (None, "python: test"))
    problem, platform, cfg = FALLBACKS[reason]
    registry = MetricsRegistry()
    fast = run_sisc_batched(problem, platform, cfg, metrics=registry)
    assert fast.meta.get("engine") != "lockstep"
    counter = registry.counter(
        "lockstep.fallback_reason", reason=reason, problem=problem.name
    )
    assert counter.value == 1
    assert len(registry) == 1
    ref = run_sisc(problem, platform, cfg)
    assert run_fingerprint(ref) == run_fingerprint(fast)


def test_lockstep_no_fallback_counter_on_the_fast_path():
    from repro.obs import MetricsRegistry

    problem, platform, cfg = CASES["hetero"]
    registry = MetricsRegistry()
    fast = run_sisc_batched(problem, platform, cfg, metrics=registry)
    assert fast.meta["engine"] == "lockstep"
    assert len(registry) == 0  # nothing counted on the fast path


def test_lockstep_falls_back_without_oracle_detection():
    problem, platform = hard_problem(), hetero_platform()
    cfg = SolverConfig(tolerance=1e-8, detection="token_ring")
    ref = run_sisc(problem, platform, cfg)
    fast = run_sisc_batched(problem, platform, cfg)
    assert fast.meta.get("engine") != "lockstep"
    assert run_fingerprint(ref) == run_fingerprint(fast)


# ----------------------------------------------------------------------
# The chain sweeper itself: one `iterate` over the whole chain must
# reproduce the per-rank path bit for bit.
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "blocks",
    [
        [(0, 16), (16, 32), (32, 48)],  # equal widths: reshape reduction
        [(0, 7), (7, 19), (19, 48)],  # unequal: per-slice reduction
        [(0, 48)],  # single rank
    ],
)
def test_batched_sweeper_matches_scalar_iterate(blocks):
    problem = hard_problem(48)
    sweeper = problem.batched_chain_sweeper(blocks)
    states = [problem.initial_state(lo, hi) for lo, hi in blocks]
    last = len(blocks) - 1
    for _ in range(12):
        residual, work = sweeper.sweep()
        # Jacobi round: gather all halos before any state mutates.
        halos = [
            (
                problem.initial_halo(-1)
                if r == 0
                else np.array([states[r - 1].traj[-1]]),
                problem.initial_halo(problem.n_components)
                if r == last
                else np.array([states[r + 1].traj[0]]),
            )
            for r in range(len(blocks))
        ]
        for r, (state, (left, right)) in enumerate(zip(states, halos)):
            res = problem.iterate(state, left, right)
            assert res.local_residual == residual[r]
            assert res.total_work == work[r]
        for r in range(len(blocks)):
            assert np.array_equal(sweeper.solution_block(r), states[r].traj)


def test_run_fingerprint_ignores_engine_meta():
    problem, platform, cfg = CASES["hetero"]
    fast = run_sisc_batched(problem, platform, cfg)
    fp = run_fingerprint(fast)
    fast.meta["engine"] = "something-else"
    fast.meta["events_dispatched"] = -1
    assert run_fingerprint(fast) == fp
    fast.meta["aborted_reason"] = "tampered"
    assert run_fingerprint(fast) != fp
