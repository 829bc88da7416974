"""Small shared utilities: seeded RNG trees and argument validation."""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "RngTree": "rng",
        "spawn_generator": "rng",
        "check_positive": "validation",
        "check_non_negative": "validation",
        "check_in_range": "validation",
    },
)
