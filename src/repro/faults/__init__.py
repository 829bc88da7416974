"""Deterministic fault injection for the grid simulation.

``repro.faults`` models the failure modes of the paper's target
environment — the computational grid, where "the network can be cut" and
machines slow down or disappear — as declarative, seeded fault schedules
compiled into DES events.  See ``docs/faults.md``.  The corruption
family (payload/state/storage) and its detection layer are documented in
``docs/robustness.md`` ("Data integrity").
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "FaultInjector": "injector",
        "FaultSchedule": "models",
        "ResilienceConfig": "models",
        "MessageLoss": "models",
        "MessageDuplication": "models",
        "MessageReordering": "models",
        "LinkPartition": "models",
        "HostCrash": "models",
        "HostSlowdown": "models",
        "LatencySpike": "models",
        "PayloadCorruption": "models",
        "StateCorruption": "models",
        "FAULT_TYPES": "models",
        "CORRUPTION_MODES": "models",
    },
)
