"""Scenario builders for every experiment in DESIGN.md §4.

Each scenario is a dataclass of *tuned, frozen* parameters with methods
producing fresh problem / platform / config objects, so that a benchmark
and a reduced-size integration test build exactly the same set-up.
Every scenario derives from :class:`Scenario`, whose :meth:`~Scenario.
preset` is the one place a preset name (``--full``, ``--tiny``, a served
job's ``mode``) becomes an instance; the three fault sweeps on the heat
problem additionally share :class:`_HeatFaultScenario`.  A scenario's
``asdict`` is its runs' cache key, so renaming a field or changing a
default re-addresses every cached run of that sweep.

Why the Figure 5 scenario uses the synthetic problem
----------------------------------------------------
The paper attributes its homogeneous-cluster gain to the evolution of
the computation: "the progression towards the solution is not the same
for all the components ... it is then possible to enhance the
repartition of the actually evolving computations" (§2).  Measuring our
Brusselator waveform relaxation shows per-component Newton work almost
uniform at these sizes (max/mean ≈ 1.03 across blocks), so the activity
concentration that drives the paper's 6.8× must have been much stronger
in their setting (their inner Solve can skip converged work entirely).
The synthetic problem models exactly that mechanism with controllable
strength; the Brusselator remains the correctness vehicle (Table 1 and
all solver tests run it) and ``python -m repro ablations`` measures its
real (weaker) activity spread.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.config import LBConfig, SolverConfig
from repro.grid.platform import Platform, homogeneous_cluster
from repro.util.rng import RngTree

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.problems.brusselator import BrusselatorProblem
    from repro.problems.synthetic import SyntheticProblem

__all__ = [
    "Scenario",
    "Figure5Scenario",
    "IntegrityScenario",
    "ScaleScenario",
    "Table1Scenario",
    "ModelsComparisonScenario",
    "TraceFigureScenario",
    "ResilienceScenario",
    "SoakScenario",
]


def _coupled_brusselator(scenario) -> BrusselatorProblem:
    """The Brusselator a ``problem_kind="brusselator"`` scenario runs.

    ``alpha`` is derived from the scenario's ``coupling``: the waveform
    relaxation contracts at ``ρ = 2cδt/(1+2cδt)`` with ``c·δt =
    coupling``, so the sweep count stays N-independent instead of
    degenerating as (N+1)² grows.  ``skip_converged`` is the
    Brusselator's native activity mechanism (converged components verify
    cheaply / skip); the threshold sits two decades above the tolerance,
    the same margin as the synthetic ``active_threshold``.
    """
    if scenario.problem_kind != "brusselator":
        raise ValueError(
            f"unknown problem_kind {scenario.problem_kind!r}; "
            "choose 'synthetic' or 'brusselator'"
        )
    from repro.problems.brusselator import BrusselatorProblem

    n, t_end, n_steps = scenario.n_components, scenario.t_end, scenario.n_steps
    return BrusselatorProblem(
        n,
        t_end=t_end,
        n_steps=n_steps,
        alpha=scenario.coupling * n_steps / (t_end * (n + 1) ** 2),
        skip_converged=True,
        skip_threshold=100.0 * scenario.tolerance,
    )


class Scenario:
    """Base of every scenario dataclass: named presets, resolved once."""

    @classmethod
    def preset(cls, mode: str):
        """The instance a preset name means: ``cls()`` for ``"full"``,
        otherwise the class's own no-argument classmethod of that name
        (``quick()``, ``tiny()``, ``scale()``, ...)."""
        if mode == "full":
            return cls()
        factory = inspect.getattr_static(cls, mode, None)
        if isinstance(factory, classmethod) and mode != "preset":
            return getattr(cls, mode)()
        raise ValueError(
            f"unknown mode {mode!r}: {cls.__name__} has no such preset"
        )


@dataclass(frozen=True)
class Figure5Scenario(Scenario):
    """Figure 5: homogeneous cluster, time vs #procs, with/without LB.

    Strong scaling of a fixed problem whose activity concentrates in a
    hard region (an eighth of the domain, converging ~60× more slowly),
    on a dedicated cluster with a fast LAN.
    """

    n_components: int = 1024
    hard_region: tuple[float, float] = (0.3125, 0.4375)
    easy_rate: float = 0.5
    hard_rate: float = 0.97
    active_cost: float = 30.0
    tolerance: float = 1e-10
    host_speed: float = 200.0
    proc_counts: tuple[int, ...] = (4, 8, 16, 32, 64)
    #: Which problem drives the sweep: ``"synthetic"`` (default; see the
    #: module docstring) or ``"brusselator"`` (``repro figure5
    #: --problem brusselator``) — the real PDE numerics with adaptive
    #: skipping as the activity mechanism.
    problem_kind: str = "synthetic"
    #: Brusselator knobs (``problem_kind="brusselator"`` only; see
    #: :func:`_coupled_brusselator`).
    t_end: float = 10.0
    n_steps: int = 40
    coupling: float = 0.4

    def problem(self) -> SyntheticProblem | BrusselatorProblem:
        if self.problem_kind != "synthetic":
            return _coupled_brusselator(self)
        from repro.problems.synthetic import SyntheticProblem

        return SyntheticProblem.with_hard_region(
            self.n_components,
            easy_rate=self.easy_rate,
            hard_rate=self.hard_rate,
            region=self.hard_region,
            active_cost=self.active_cost,
            active_threshold=100.0 * self.tolerance,
        )

    def platform(self, n_procs: int) -> Platform:
        return homogeneous_cluster(n_procs, speed=self.host_speed)

    def solver_config(self, *, trace: bool = False) -> SolverConfig:
        return SolverConfig(
            tolerance=self.tolerance, max_iterations=500_000, trace=trace
        )

    def lb_config(self) -> LBConfig:
        return LBConfig(
            period=5,
            threshold_ratio=3.0,
            min_components=2,
            accuracy=1.0,
            max_fraction=0.5,
        )

    @classmethod
    def quick(cls) -> "Figure5Scenario":
        """Reduced size for fast benchmark runs (seconds, not minutes)."""
        return cls(
            n_components=256,
            proc_counts=(4, 8, 16),
            hard_rate=0.9,
            tolerance=1e-8,
        )

    @classmethod
    def tiny(cls) -> "Figure5Scenario":
        """Smallest meaningful instance, for the integration tests."""
        return cls(
            n_components=128,
            proc_counts=(4, 8),
            hard_rate=0.85,
            tolerance=1e-6,
        )

    @classmethod
    def scale(cls) -> "Figure5Scenario":
        """``repro figure5 --scale``: the same curves out to 1024 ranks.

        The problem grows with the top of the sweep (128 components per
        rank at p=1024) so the largest point still has meaningful local
        blocks; the tolerance is relaxed one notch to keep sweep counts
        — and therefore event counts — tractable at this width.  This
        preset is an explicit opt-in: the balanced arm still runs the
        event-driven AIAC+LB solver, so expect minutes, not seconds.
        """
        return cls(
            n_components=131_072,
            proc_counts=(64, 128, 256, 512, 1024),
            hard_rate=0.9,
            tolerance=1e-8,
        )

    @classmethod
    def scale_brusselator(cls) -> "Figure5Scenario":
        """``repro figure5 --scale --problem brusselator``.

        The scale sweep on the real PDE numerics.  The component count
        drops an order of magnitude from the synthetic scale preset:
        every Brusselator component carries a full ``(2, n_steps + 1)``
        trajectory and a per-sweep Newton solve, so the synthetic size
        would move the cost from the scheduler (what the sweep measures)
        to the numpy kernels.
        """
        return cls(
            n_components=16_384,
            proc_counts=(64, 128, 256, 512, 1024),
            tolerance=1e-8,
            problem_kind="brusselator",
        )


@dataclass(frozen=True)
class ScaleScenario(Scenario):
    """Large-N scaling instances for the lockstep SISC replay.

    A ranks × components grid point: a homogeneous cluster (the replay
    models SISC, whose rounds are closed-form there) and the synthetic
    activity-concentration problem partitioned evenly (``n_components``
    is always ``components_per_rank * n_ranks``, so blocks never go
    empty and the batched sweeper's tiling stays rectangular).  Used by
    ``bench/``'s ``lockstep_sisc`` and the scale tests under ``tests/``;
    tracing is off — per-event records at 10⁶+ events are exactly the
    memory profile this scenario exists to avoid.
    """

    n_ranks: int = 256
    components_per_rank: int = 512
    easy_rate: float = 0.5
    hard_rate: float = 0.9
    hard_region: tuple[float, float] = (0.4, 0.6)
    tolerance: float = 1e-8
    host_speed: float = 1000.0
    max_iterations: int = 500_000
    #: ``"synthetic"`` (default) or ``"brusselator"``: the real PDE
    #: numerics through the same lockstep/event-driven ladder.
    problem_kind: str = "synthetic"
    #: Brusselator knobs, as :class:`Figure5Scenario`'s.
    t_end: float = 10.0
    n_steps: int = 40
    coupling: float = 0.4

    @property
    def n_components(self) -> int:
        return self.n_ranks * self.components_per_rank

    def problem(self) -> SyntheticProblem | BrusselatorProblem:
        if self.problem_kind != "synthetic":
            return _coupled_brusselator(self)
        from repro.problems.synthetic import SyntheticProblem

        return SyntheticProblem.with_hard_region(
            self.n_components,
            easy_rate=self.easy_rate,
            hard_rate=self.hard_rate,
            region=self.hard_region,
        )

    def platform(self) -> Platform:
        return homogeneous_cluster(self.n_ranks, speed=self.host_speed)

    def solver_config(self) -> SolverConfig:
        return SolverConfig(
            tolerance=self.tolerance,
            max_iterations=self.max_iterations,
            trace=False,
        )

    @classmethod
    def smoke(cls) -> "ScaleScenario":
        """256 ranks, ~10⁵ components: the replay run under a wall-clock
        budget in ``tests/test_scale_smoke.py``."""
        return cls(n_ranks=256, components_per_rank=400)


@dataclass(frozen=True)
class Table1Scenario(Scenario):
    """Table 1: heterogeneous 15-machine, 3-site grid, balanced vs not.

    The paper's grid: five machines per French site, speeds spanning the
    PII-400 → Athlon-1.4G range, every machine under multi-user load,
    slow fluctuating inter-site links, and the logical chain organised
    *irregularly* (round-robin across sites) so halo exchanges cross
    sites — "a grid computing context not favorable to load balancing".

    The Brusselator drives the numerics, as in the paper.
    """

    seed: int = 2003
    n_points: int = 180
    t_end: float = 10.0
    n_steps: int = 40
    alpha: float = 0.002
    tolerance: float = 1e-5
    speed_divisor: float = 2.0
    #: Multi-user load: deep and *persistent* (dwell a sizeable fraction
    #: of the run) — a colleague's batch job, not millisecond noise.
    #: Scaled with the run length so quick and full mode see the same
    #: number of load epochs (~4-5 per run).
    load_range: tuple[float, float] = (0.15, 1.0)
    load_dwell: float = 2000.0

    def problem(self) -> BrusselatorProblem:
        # alpha is reduced from the paper's 1/50 so that the waveform
        # relaxation's contraction rate (≈ 2cδt/(1+2cδt), c = α(N+1)²)
        # stays away from 1 at this N: the paper's parallel scheme has
        # the same N-vs-sweep-count coupling, it just ran far more
        # sweeps on real hardware than a simulation budget allows.
        from repro.problems.brusselator import BrusselatorProblem

        return BrusselatorProblem(
            self.n_points,
            t_end=self.t_end,
            n_steps=self.n_steps,
            alpha=self.alpha,
        )

    def platform(self) -> Platform:
        from repro.grid.platform import SiteSpec, multi_site_grid

        sites = [
            SiteSpec(
                name,
                5,
                speed_range=(400.0, 1400.0),  # PII-400 ... Athlon-1.4G
                load_mean_dwell=self.load_dwell,
                load_range=self.load_range,
            )
            for name in ("belfort", "montbeliard", "grenoble")
        ]
        platform = multi_site_grid(sites, RngTree(self.seed))
        for host in platform.hosts:
            # MHz -> work units/s at a scale that puts run times in the
            # paper's hundreds-of-seconds range for this problem size.
            host.speed = host.speed / self.speed_divisor
        return platform

    def host_order(self, platform: Platform) -> list[int]:
        from repro.topology.logical import interleaved_sites_order

        return interleaved_sites_order(platform)

    def solver_config(self, *, trace: bool = False) -> SolverConfig:
        return SolverConfig(
            tolerance=self.tolerance, max_iterations=200_000, trace=trace
        )

    def lb_config(self) -> LBConfig:
        # period=2: on a platform whose imbalance drifts continuously
        # (multi-user load), frequent cheap trials beat the paper's 20
        # (swept by ``repro ablations``; the offer handshake keeps frequent
        # trials nearly free).
        return LBConfig(
            period=2,
            threshold_ratio=2.0,
            min_components=2,
            accuracy=1.0,
            max_fraction=0.5,
        )

    @classmethod
    def quick(cls) -> "Table1Scenario":
        return cls(
            n_points=105, t_end=5.0, n_steps=20, tolerance=1e-5,
            load_dwell=200.0,
        )


@dataclass(frozen=True)
class ModelsComparisonScenario(Scenario):
    """§6 discussion: SISC vs SIAC vs AIAC on cluster and grid platforms.

    The claim to reproduce: on the local cluster the three models are
    close; on the grid (slow, fluctuating links + heterogeneity) the
    asynchronous model wins clearly.
    """

    seed: int = 77
    n_components: int = 128
    rate: float = 0.9
    tolerance: float = 1e-8
    n_procs: int = 8

    def problem(self) -> SyntheticProblem:
        import numpy as np

        from repro.problems.synthetic import SyntheticProblem

        return SyntheticProblem(
            np.full(self.n_components, self.rate), coupling=0.3
        )

    def cluster_platform(self) -> Platform:
        return homogeneous_cluster(self.n_procs, speed=200.0)

    def grid_platform(self) -> Platform:
        from repro.grid.platform import SiteSpec, multi_site_grid

        sites = [
            SiteSpec("a", self.n_procs // 2, speed_range=(120.0, 280.0),
                     load_range=(0.2, 1.0), load_mean_dwell=3.0),
            SiteSpec("b", self.n_procs - self.n_procs // 2,
                     speed_range=(120.0, 280.0),
                     load_range=(0.2, 1.0), load_mean_dwell=3.0),
        ]
        return multi_site_grid(
            sites,
            RngTree(self.seed),
            inter_latency=0.4,
            inter_bandwidth=5e3,
            inter_fluctuation=(0.1, 1.0),
            inter_fluctuation_dwell=5.0,
        )

    def host_order(self, platform: Platform) -> list[int]:
        from repro.topology.logical import interleaved_sites_order

        return interleaved_sites_order(platform)

    def solver_config(self, *, trace: bool = False) -> SolverConfig:
        return SolverConfig(
            tolerance=self.tolerance, max_iterations=200_000, trace=trace
        )


@dataclass(frozen=True)
class _HeatFaultScenario(Scenario):
    """What the three fault sweeps (resilience, integrity, soak) share.

    The heat problem drives the numerics because it has an exact
    sequential reference, so every faulted run's *solution correctness*
    (not just its convergence flag) is checked against ground truth.
    The platform is a homogeneous cluster: any time difference between
    a fault-free run and a faulted one is then attributable to the
    faults and the recovery machinery alone, not to heterogeneity.
    All runs of a sweep share one :class:`ResilienceConfig` and the
    scenario seed, so the whole sweep is byte-reproducible.
    """

    seed: int = 42
    n_points: int = 48
    t_end: float = 0.05
    n_steps: int = 12
    n_procs: int = 4
    host_speed: float = 2000.0
    tolerance: float = 1e-7
    #: Run budget (virtual seconds).
    max_time: float = 5000.0

    def problem(self):
        from repro.problems.heat import HeatProblem

        return HeatProblem(
            self.n_points, t_end=self.t_end, n_steps=self.n_steps
        )

    def platform(self) -> Platform:
        return homogeneous_cluster(self.n_procs, speed=self.host_speed)

    def solver_config(self, *, trace: bool = False) -> SolverConfig:
        return SolverConfig(
            tolerance=self.tolerance,
            max_iterations=200_000,
            max_time=self.max_time,
            trace=trace,
        )

    def lb_config(self) -> LBConfig:
        return LBConfig(
            period=5,
            threshold_ratio=2.0,
            min_components=2,
            accuracy=1.0,
            max_fraction=0.5,
        )

    def resilience(self, **overrides):
        """The sweep's transport regime, tuned so retransmissions and
        liveness detection resolve within a few virtual seconds at this
        problem scale; ``overrides`` are :class:`ResilienceConfig`
        fields (the integrity sweep arms ``integrity_checks``)."""
        from repro.faults.models import ResilienceConfig

        # base_timeout models a conservative TCP-like RTO on the LAN
        # (~250x the 0.2ms round trip): a dropped halo is retransmitted
        # within ~1-2 sweeps, so loss degrades throughput without
        # freezing boundary data for long stretches; checkpoints are
        # frequent enough that a rollback costs little progress.
        return ResilienceConfig(
            base_timeout=0.05,
            heartbeat_period=1.0,
            liveness_timeout=3.0,
            checkpoint_every=20,
            **overrides,
        )

    def faults_for(self, name: str) -> tuple:
        """The fault models of one named schedule, from the subclass's
        ``_fault_table()``."""
        table = self._fault_table()
        if name not in table:
            raise ValueError(
                f"unknown schedule {name!r}; choose from {sorted(table)}"
            )
        return table[name]

    def schedule(self, name: str, **overrides):
        """Build one named :class:`FaultSchedule` (fresh object per
        call); ``overrides`` reach :meth:`resilience`."""
        from repro.faults.models import FaultSchedule

        return FaultSchedule(
            faults=self.faults_for(name),
            seed=self.seed,
            resilience=self.resilience(**overrides),
        )


@dataclass(frozen=True)
class ResilienceScenario(_HeatFaultScenario):
    """Fault-injection sweep: AIAC+LB vs AIAC vs SIAC vs SISC under faults.

    Every named schedule runs under each execution model on the shared
    heat-problem set-up of :class:`_HeatFaultScenario`; the ``none``
    schedule is each model's fault-free baseline.
    """

    #: Message-fault intensities.
    loss_low: float = 0.10
    loss_high: float = 0.30
    dup_rate: float = 0.10
    reorder_rate: float = 0.20
    reorder_delay: float = 0.5
    #: Timed faults (virtual seconds).
    crash_rank: int = 2
    crash_at: float = 3.0
    crash_downtime: tuple[float, float] = (1.5, 2.5)
    partition_window: tuple[float, float] = (6.0, 9.0)
    slowdown_window: tuple[float, float] = (4.0, 14.0)
    slowdown_factor: float = 0.25
    #: Which schedules the sweep runs (subset of ``_fault_table()``).
    schedule_names: tuple[str, ...] = (
        "none",
        "loss10",
        "loss30",
        "dup+reorder",
        "crash",
        "loss10+crash",
        "partition",
        "slowdown",
    )
    models: tuple[str, ...] = ("aiac+lb", "aiac", "siac", "sisc")
    #: The schedule whose AIAC+LB run headlines the report (Gantt + the
    #: acceptance check "converges correctly under loss + crash").
    headline: str = "loss10+crash"

    def _fault_table(self) -> dict[str, tuple]:
        from repro.faults.models import (
            HostCrash,
            HostSlowdown,
            LinkPartition,
            MessageDuplication,
            MessageLoss,
            MessageReordering,
        )

        half = self.n_procs // 2
        crash = HostCrash(
            rank=self.crash_rank, at=self.crash_at,
            downtime=self.crash_downtime,
        )
        return {
            "none": (),
            "loss10": (MessageLoss(self.loss_low),),
            "loss30": (MessageLoss(self.loss_high),),
            "dup+reorder": (
                MessageDuplication(self.dup_rate),
                MessageReordering(
                    self.reorder_rate, max_extra_delay=self.reorder_delay
                ),
            ),
            "crash": (crash,),
            "loss10+crash": (MessageLoss(self.loss_low), crash),
            "partition": (
                LinkPartition(
                    t0=self.partition_window[0],
                    t1=self.partition_window[1],
                    ranks_a=tuple(range(half)),
                    ranks_b=tuple(range(half, self.n_procs)),
                ),
            ),
            "slowdown": (
                HostSlowdown(
                    rank=self.crash_rank,
                    t0=self.slowdown_window[0],
                    t1=self.slowdown_window[1],
                    factor=self.slowdown_factor,
                    ramp_steps=4,
                ),
            ),
        }

    @classmethod
    def quick(cls) -> "ResilienceScenario":
        """Reduced sweep for fast CLI runs: the headline contrast only."""
        return cls(
            schedule_names=("none", "loss10", "crash", "loss10+crash"),
        )

    @classmethod
    def tiny(cls) -> "ResilienceScenario":
        """Smallest instance (CI smoke): clean baseline + loss-and-crash."""
        return cls(
            n_points=32,
            n_steps=8,
            tolerance=1e-6,
            schedule_names=("none", "loss10+crash"),
        )


@dataclass(frozen=True)
class IntegrityScenario(_HeatFaultScenario):
    """Silent-corruption sweep: detection recall vs wrong-answer rate.

    The data-integrity question behind ``repro integrity``: when values
    rot — in a halo message on the wire, in a live solver block, in a
    saved checkpoint — does the system *detect and recover*, silently
    *mask* the damage (the fixed-point iteration is contractive, so
    clean inputs can iterate poison away), or **converge to a wrong
    answer without anyone noticing**?  The last outcome is the only
    unacceptable one, and the benchmark gate asserts it never happens
    while detection is armed.

    Setup and transport regime are :class:`ResilienceScenario`'s (the
    shared :class:`_HeatFaultScenario`).  Every corruption schedule
    runs twice: the ``detect`` arm with :attr:`~repro.faults.models.
    ResilienceConfig.integrity_checks` armed (checksums, checkpoint
    CRC, plausibility guard) and the ``blind`` arm with them off,
    measuring what asynchronism absorbs unaided.  ``truncate`` payloads
    only run in the detect arm: an unchecked truncated halo is a
    malformed message no receiver contract covers (it would crash the
    handler, loudly — not a silent-corruption datum).
    """

    #: The clean run converges in ~10 virtual seconds; a blind run
    #: still iterating at 60x that is conclusively stalled, and
    #: continuous payload corruption makes stalled runs expensive
    #: (every delivery keeps injecting), so the budget is deliberately
    #: tighter than ResilienceScenario's.
    max_time: float = 600.0
    #: Payload-corruption intensities (per-delivery probability).
    rate_low: float = 0.02
    rate_high: float = 0.10
    perturb_amplitude: float = 10.0
    #: Timed state faults (virtual seconds).
    state_rank: int = 1
    state_at: float = 3.0
    ckpt_at: float = 2.5
    crash_rank: int = 1
    crash_at: float = 3.5
    crash_downtime: tuple[float, float] = (1.0, 2.0)
    #: A converged answer farther than this from the sequential
    #: reference is a *wrong answer* (the silent failure the layer
    #: exists to rule out).
    error_tol: float = 1e-3
    schedule_names: tuple[str, ...] = (
        "none",
        "flip_lo",
        "flip_hi",
        "perturb",
        "truncate",
        "state",
        "ckpt+crash",
    )
    models: tuple[str, ...] = ("aiac+lb", "aiac", "siac", "sisc")
    arms: tuple[str, ...] = ("detect", "blind")
    #: Schedules that only run with detection armed (see class docs).
    detect_only: tuple[str, ...] = ("truncate",)
    headline: str = "flip_hi"

    def guard_config(self):
        from repro.guard import GuardConfig

        return GuardConfig()

    def _fault_table(self) -> dict[str, tuple]:
        from repro.faults.models import (
            HostCrash,
            PayloadCorruption,
            StateCorruption,
        )

        return {
            "none": (),
            "flip_lo": (PayloadCorruption(self.rate_low, mode="bitflip"),),
            "flip_hi": (PayloadCorruption(self.rate_high, mode="bitflip"),),
            "perturb": (
                PayloadCorruption(
                    self.rate_high,
                    mode="perturb",
                    amplitude=self.perturb_amplitude,
                ),
            ),
            "truncate": (
                PayloadCorruption(self.rate_low, mode="truncate"),
            ),
            "state": (
                StateCorruption(
                    rank=self.state_rank, at=self.state_at, target="state"
                ),
            ),
            # Poison the saved snapshot, then crash the same rank: the
            # restart *must* restore from checkpoint, so the CRC check
            # is actually on the recovery path (without the crash a
            # later re-checkpoint could simply overwrite the poison).
            "ckpt+crash": (
                StateCorruption(
                    rank=self.crash_rank,
                    at=self.ckpt_at,
                    target="checkpoint",
                ),
                HostCrash(
                    rank=self.crash_rank,
                    at=self.crash_at,
                    downtime=self.crash_downtime,
                ),
            ),
        }

    def schedule(self, name: str, *, detect: bool):
        """One named :class:`FaultSchedule` with detection armed or not."""
        return super().schedule(name, integrity_checks=detect)

    def grid(self) -> list[tuple[str, str, str]]:
        """All (arm, schedule, model) cells the sweep runs, in order."""
        return [
            (arm, name, model)
            for arm in self.arms
            for name in self.schedule_names
            if arm == "detect" or name not in self.detect_only
            for model in self.models
        ]

    @classmethod
    def quick(cls) -> "IntegrityScenario":
        """Reduced sweep for fast CLI runs and the CI smoke."""
        return cls(
            n_points=32,
            n_steps=8,
            tolerance=1e-6,
            schedule_names=("none", "flip_hi", "state", "ckpt+crash"),
        )

    @classmethod
    def tiny(cls) -> "IntegrityScenario":
        """Smallest instance: clean baseline + one payload schedule."""
        return cls(
            n_points=32,
            n_steps=8,
            tolerance=1e-6,
            schedule_names=("none", "flip_hi"),
            models=("aiac+lb", "aiac"),
        )


@dataclass(frozen=True)
class SoakScenario(_HeatFaultScenario):
    """Chaos soak (``repro soak``): random fault schedules, all models.

    The shared heat-problem set-up at the smallest scale that still
    exercises crash recovery and load balancing (the size and transport
    regime of ``ResilienceScenario.tiny()``): every run's answer is
    checked against ground truth *and* against the fault-free run of
    the same model, on top of the ``repro.guard`` invariants.
    The fault-intensity knobs bound what :func:`repro.guard.soak.
    random_schedule` may draw, so a scenario instance fully determines
    the soak (schedules included) given its seed.
    """

    seed: int = 0
    n_points: int = 32
    n_steps: int = 8
    tolerance: float = 1e-6
    max_time: float = 2000.0
    models: tuple[str, ...] = ("sisc", "siac", "aiac", "aiac+lb")
    #: Correctness gates: max error vs the sequential reference, and
    #: max divergence from the same model's fault-free solution.
    error_tol: float = 1e-3
    agreement_tol: float = 1e-3
    #: Stall-watchdog horizon (virtual seconds; the tiny heat instance
    #: converges in tens of virtual seconds, so a full horizon without
    #: a single sweep anywhere is genuinely pathological).
    stall_horizon: float = 50.0
    #: Fault-draw bounds for the random schedule generator.
    max_faults: int = 3
    loss_range: tuple[float, float] = (0.05, 0.30)
    dup_range: tuple[float, float] = (0.05, 0.25)
    reorder_range: tuple[float, float] = (0.10, 0.40)
    reorder_delay_range: tuple[float, float] = (0.2, 0.8)
    crash_at_range: tuple[float, float] = (1.0, 5.0)
    crash_downtime_range: tuple[float, float] = (0.5, 2.5)
    slowdown_factor_range: tuple[float, float] = (0.3, 0.7)
    fault_window_range: tuple[float, float] = (0.5, 2.5)


@dataclass(frozen=True)
class TraceFigureScenario(Scenario):
    """Figures 1-4: execution flows of the four models on two processors.

    Two unequal processors and a visible network latency, exactly the
    regime in which the figures' idle gaps appear.
    """

    n_components: int = 24
    rate: float = 0.9
    fast_speed: float = 240.0
    slow_speed: float = 150.0
    latency: float = 0.08
    bandwidth: float = 1e5
    tolerance: float = 1e-6

    def problem(self) -> SyntheticProblem:
        import numpy as np

        from repro.problems.synthetic import SyntheticProblem

        return SyntheticProblem(
            np.full(self.n_components, self.rate), coupling=0.3
        )

    def platform(self) -> Platform:
        from repro.grid.host import Host
        from repro.grid.link import Link
        from repro.grid.network import Network

        network = Network(Link(latency=self.latency, bandwidth=self.bandwidth))
        hosts = [
            Host("fast", self.fast_speed),
            Host("slow", self.slow_speed),
        ]
        return Platform(hosts=hosts, network=network)

    def solver_config(self) -> SolverConfig:
        return SolverConfig(
            tolerance=self.tolerance, max_iterations=100_000, trace=True
        )
