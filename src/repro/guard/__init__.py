"""Runtime safety invariants, watchdogs, and the chaos-soak harness.

The paper's headline claim — AIAC coupled with decentralized load
balancing converges *faster without ever halting on a wrong answer* —
rests on safety properties that are easy to break silently under
asynchrony: a component lost in a migration, a convergence detector
fooled by a quiescent-but-wrong rank, a retry storm that never
terminates.  ``repro.guard`` checks those properties while a run
executes instead of trusting them:

* :class:`InvariantMonitor` — piggybacks on the DES profiler slot
  (``Simulator.attach_monitor``) and periodically asserts component
  conservation, per-channel sequence monotonicity and
  checkpoint–ownership consistency; at halt time its
  :meth:`~InvariantMonitor.verify_halt` oracle recomputes the *true*
  global residual from assembled state and fails loudly on any
  premature termination.
* Liveness watchdogs — a virtual-time stall detector emitting
  structured :class:`StallReport`\\ s, and a Newton/solver divergence
  guard that rolls a blowing-up rank back to its checkpoint instead of
  propagating NaNs.
* :class:`PlausibilityGuard` — numerical screens (NaN/Inf, out-of-domain
  magnitudes, implausible residual jumps) that engage only while an
  attached fault injector has its corruption-detection layer armed,
  rolling poisoned in-memory state back to the last verified checkpoint
  (the data-integrity layer, ``docs/robustness.md``).
* :mod:`repro.guard.soak` — seeded random :class:`FaultSchedule`
  generation, a SISC/SIAC/AIAC ± LB soak runner asserting every
  invariant plus final-answer agreement with the fault-free run, and a
  greedy shrinker that reduces failing schedules to minimal
  reproducers written to disk (CLI verb ``repro soak``).

With no monitor attached nothing changes: the dispatch loop sees an
empty observer slot and the transport keeps its exact event trace
(fingerprint-pinned, like the profiler).  See ``docs/robustness.md``.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "GuardConfig": "invariants",
        "InvariantMonitor": "invariants",
        "InvariantViolation": "invariants",
        "PlausibilityGuard": "plausibility",
        "StallReport": "watchdogs",
        "SoakFailure": "soak",
        "SoakResult": "soak",
        "SoakScenario": "soak",
        "random_schedule": "soak",
        "run_soak": "soak",
        "shrink_schedule": "soak",
    },
)
