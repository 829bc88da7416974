"""Process-memory telemetry for scale runs.

The scale benchmarks report peak resident set size alongside wall-clock
and events/sec: memory, not time, is what first breaks a naive simulator
at 10k ranks.  Only the standard library is used (``resource`` on
POSIX); on platforms without ``resource`` the probe degrades to 0 rather
than failing the run.
"""

from __future__ import annotations

import sys

__all__ = ["peak_rss_bytes"]

try:  # pragma: no cover - resource is always present on POSIX
    import resource
except ImportError:  # pragma: no cover - non-POSIX fallback
    resource = None  # type: ignore[assignment]


def peak_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes (0 if unknown).

    ``ru_maxrss`` is kilobytes on Linux but bytes on macOS; normalise to
    bytes.  The value is a process-lifetime high-water mark, so callers
    comparing configurations must measure in separate processes.
    """
    if resource is None:
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return int(peak)
    return int(peak) * 1024
