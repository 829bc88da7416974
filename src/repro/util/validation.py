"""Argument-validation helpers used across the public API.

These raise early, with messages that name the offending parameter, so
configuration mistakes surface at construction time rather than deep
inside a simulation run.
"""

from __future__ import annotations

__all__ = [
    "check_positive",
    "check_non_negative",
    "check_in_range",
    "check_disjoint_intervals",
]


def check_positive(name: str, value: float) -> float:
    """Validate ``value > 0`` and return it."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Validate ``value >= 0`` and return it."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_in_range(
    name: str,
    value: float,
    lo: float,
    hi: float,
    *,
    inclusive: bool = True,
) -> float:
    """Validate ``lo <= value <= hi`` (or strict bounds) and return it."""
    ok = (lo <= value <= hi) if inclusive else (lo < value < hi)
    if not ok:
        bracket = "[]" if inclusive else "()"
        raise ValueError(
            f"{name} must be in {bracket[0]}{lo}, {hi}{bracket[1]}, got {value!r}"
        )
    return value


def check_disjoint_intervals(
    name: str, intervals: list[tuple[float, float]]
) -> list[tuple[float, float]]:
    """Validate that closed intervals ``(lo, hi)`` are pairwise disjoint.

    Touching endpoints count as an overlap: two schedule events at the
    same instant have no defined relative order, so a window that ends
    exactly where the next begins is ambiguous.  Returns the intervals
    sorted by start time.
    """
    ordered = sorted(intervals)
    for (lo_a, hi_a), (lo_b, hi_b) in zip(ordered, ordered[1:]):
        if lo_b <= hi_a:
            raise ValueError(
                f"{name} intervals overlap: "
                f"[{lo_a:g}, {hi_a:g}] and [{lo_b:g}, {hi_b:g}]"
            )
    return ordered
