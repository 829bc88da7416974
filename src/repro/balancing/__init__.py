"""Non-centralized iterative load-balancing algorithms (paper Section 3).

One step rule per algorithm family the paper surveys before picking its
scheme — the policies of :mod:`repro.balancing.zoo`, built by
:func:`~repro.balancing.zoo.make_policy`:

* ``diffusion`` — Cybenko's first-order diffusion: every node exchanges
  load with *all* its neighbours simultaneously each round;
* ``accelerated`` — second-order (heavy-ball) diffusion, its momentum
  set from the spectrum (:mod:`~repro.balancing.accelerated`);
* ``dimension_exchange`` — pairwise averaging along one edge colour
  (:func:`~repro.balancing.dimension_exchange.edge_colouring`) per round;
* ``bertsekas`` — the Bertsekas–Tsitsiklis model the paper builds on:
  nodes act on stale neighbour information and ship load to their
  lightest neighbour (the variant the paper selects);
* ``reactive_residual`` — the paper's own ratio rule, the decision
  :mod:`repro.core.lb` makes (``core.estimators.surplus_fraction``);
* ``centralized`` — the global coordinator baseline the paper argues
  against (:func:`~repro.balancing.centralized.centralized_balance`).

:func:`~repro.balancing.zoo.run_zoo` runs them on any topology, under
fault schedules and a trigger, with cost accounting.

These operate on abstract load vectors; the *solver-integrated* balancer
(residual-driven, component migration) is :mod:`repro.core.lb`.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "diffusion_matrix": "accelerated",
        "second_eigenvalue": "accelerated",
        "centralized_balance": "centralized",
        "edge_colouring": "dimension_exchange",
        "ZOO_ALGORITHMS": "zoo",
        "ZOO_SCHEDULES": "zoo",
        "TriggerPolicy": "zoo",
        "ValueCorruption": "zoo",
        "ZooFaultSchedule": "zoo",
        "ZooParams": "zoo",
        "ZooRunResult": "zoo",
        "initial_load": "zoo",
        "make_policy": "zoo",
        "make_zoo_schedule": "zoo",
        "run_zoo": "zoo",
    },
)
