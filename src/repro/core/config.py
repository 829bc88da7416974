"""Run configuration dataclasses.

Defaults follow the paper where it specifies values (``lb_period = 20``
is Algorithm 4's ``OkToTryLB`` reset; the trial order is left before
right) and sensible engineering choices where it does not
(``threshold_ratio``, the migration amount rule — see
:class:`LBConfig`).  Every unspecified-by-the-paper knob is swept by
``python -m repro ablations`` (:mod:`repro.experiments.ablations`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import check_in_range, check_positive

__all__ = ["HEADER_BYTES", "OVERLAP_SPLIT", "SolverConfig", "LBConfig"]

#: Fraction of a sweep's virtual duration after which the *left*
#: boundary data is sent (the paper's Algorithm 1 sends it once the two
#: first components are updated, i.e. early in the sweep).  The right
#: boundary always goes at the end of the sweep.  Read by the rank loop
#: and by the lockstep replay.
OVERLAP_SPLIT = 0.3

#: Fixed per-message overhead added to every payload (positions,
#: residual, protocol headers).  Read by the rank loop, the load
#: balancer and the lockstep replay.
HEADER_BYTES = 64.0


@dataclass(slots=True)
class SolverConfig:
    """Configuration common to every execution model.

    Attributes
    ----------
    tolerance:
        Global convergence threshold on every rank's local residual.
    persistence:
        Number of *consecutive* sweeps each rank must report below
        tolerance before the monitor declares global convergence —
        guards against the classic asynchronous false-positive where a
        rank looks converged while fresher neighbour data is still in
        flight.
    max_iterations:
        Per-rank sweep budget; exceeding it aborts the run as
        non-converged.
    max_time:
        Virtual-time horizon (seconds); ``None`` = unbounded.
    exclusive_sends:
        Apply the paper's per-channel mutual exclusion (Figure 4
        variant).  ``False`` gives the general AIAC of Figure 3.
    trace:
        Record detailed iteration/idle/message spans (disable for large
        sweeps).
    min_sweep_duration:
        Floor on one sweep's virtual duration (a polling throttle).
        Relevant with work-skipping problems
        (``BrusselatorProblem(skip_converged=True)``): a rank whose
        whole block is skipped would otherwise spin thousands of
        near-free sweeps per virtual second — semantically harmless
        for AIAC but wasteful, exactly like a real busy-wait loop.
        0 (default) disables the throttle.
    detection:
        ``"oracle"`` — the zero-cost supervisor stops the run the moment
        global convergence holds (default; keeps timing comparisons
        clean).  ``"token_ring"`` — the practical decentralized protocol
        of :class:`repro.core.convergence.TokenRingDetector` runs over
        real messages; the oracle still *records* its detection time so
        the protocol's overhead is measurable (the ``detection``
        ablation of ``python -m repro ablations``).
    """

    tolerance: float = 1e-6
    persistence: int = 3
    max_iterations: int = 100_000
    max_time: float | None = None
    exclusive_sends: bool = True
    trace: bool = True
    detection: str = "oracle"
    min_sweep_duration: float = 0.0

    def __post_init__(self) -> None:
        check_positive("tolerance", self.tolerance)
        if self.persistence < 1:
            raise ValueError(f"persistence must be >= 1, got {self.persistence}")
        check_positive("max_iterations", self.max_iterations)
        if self.max_time is not None:
            check_positive("max_time", self.max_time)
        if self.detection not in ("oracle", "token_ring"):
            raise ValueError(
                f"detection must be 'oracle' or 'token_ring', got {self.detection!r}"
            )
        if self.min_sweep_duration < 0:
            raise ValueError(
                f"min_sweep_duration must be >= 0, got {self.min_sweep_duration}"
            )


@dataclass(slots=True)
class LBConfig:
    """Load-balancing configuration (Algorithms 4–5).

    Attributes
    ----------
    period:
        ``OkToTryLB`` reset value: a node attempts load balancing every
        ``period`` sweeps (paper: 20).
    threshold_ratio:
        Minimum estimate ratio (mine / neighbour's) to trigger a
        migration (Algorithm 5's ``ThresholdRatio``).  Must be > 1.
    min_components:
        ``ThresholdData``: a node never lets its block shrink below this
        many components (the famine guard; at least 2 so a block always
        spans its own halo dependencies).
    accuracy:
        Migration granularity in ``(0, 1]``: the amount sent is
        ``floor(accuracy * n_local * (1 - 1/ratio))`` — 1.0 balances the
        estimates in one shot, smaller values perform the paper's
        "coarse load balancing with less data migration" recommended on
        slow networks.
    max_fraction:
        Hard cap on one migration's size as a fraction of the sender's
        block.  With the residual estimator the ratio saturates once a
        neighbour has converged (its residual is ~0), so the
        uncapped amount rule would dump almost an entire block in one
        shot and set off a cascade of re-migrations; capping turns the
        balancing into a stable diffusion-like process.  Swept by the
        ablation bench.
    estimator:
        ``"residual"`` (the paper's choice; L2 over the block's
        per-component residuals, so the estimate scales with how *much*
        of the block is still evolving), ``"residual_max"`` (worst
        component only), ``"iteration_time"`` or ``"component_count"``
        (ablations).
    retry_delay:
        Sweeps to wait before retrying after a rejected offer.
    adaptive:
        The paper's stated future work: "a closer study concerning the
        tuning of the load balancing frequency during the iterative
        process".  When enabled, each rank adapts its own trial period
        multiplicatively between ``period_min`` and ``period_max``:
        halve it after a performed migration (imbalance present — look
        again soon), double it after a fruitless trial or a rejected
        offer (nothing to do — stop paying for offers).  ``period`` is
        then only the starting value.
    period_min, period_max:
        Bounds of the adaptive period.
    """

    period: int = 20
    threshold_ratio: float = 2.0
    min_components: int = 4
    accuracy: float = 0.5
    max_fraction: float = 0.25
    estimator: str = "residual"
    retry_delay: int = 5
    adaptive: bool = False
    period_min: int = 2
    period_max: int = 80

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")
        if not self.threshold_ratio > 1.0:
            raise ValueError(
                f"threshold_ratio must be > 1, got {self.threshold_ratio}"
            )
        if self.min_components < 2:
            raise ValueError(
                f"min_components must be >= 2, got {self.min_components}"
            )
        check_in_range("accuracy", self.accuracy, 1e-9, 1.0)
        check_in_range("max_fraction", self.max_fraction, 1e-9, 1.0)
        if self.estimator not in (
            "residual",
            "residual_max",
            "iteration_time",
            "component_count",
        ):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.retry_delay < 1:
            raise ValueError(f"retry_delay must be >= 1, got {self.retry_delay}")
        if self.period_min < 1:
            raise ValueError(f"period_min must be >= 1, got {self.period_min}")
        if self.period_max < self.period_min:
            raise ValueError(
                f"period_max must be >= period_min, got "
                f"{self.period_max} < {self.period_min}"
            )
