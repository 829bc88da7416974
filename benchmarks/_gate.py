"""The timing rows and the JSON report every ``bench_*.py`` gate writes.

A gate script times its runs with :func:`timed_runs`, adds one
:class:`BenchResult` per measurement with :meth:`BenchResult.of` and
ends with :meth:`BenchReport.finish`, which saves the report and turns
the ``--check`` verdict into the exit code.  The scripts run as
``python benchmarks/bench_x.py``, so this directory is on ``sys.path``
and they import this module by name.  Per-layer timing of the product
is ``bench/run.py``'s job.
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

#: The repository root, where the committed ``BENCH_*.json`` reports live.
ROOT = Path(__file__).resolve().parent.parent


def timed_runs(
    fn: Callable[[], Any], repeats: int = 1
) -> tuple[list[float], list[Any]]:
    """Call ``fn`` ``repeats`` times: the wall time and result of each."""
    walls: list[float] = []
    results: list[Any] = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        results.append(fn())
        walls.append(time.perf_counter() - t0)
    return walls, results


@dataclass(slots=True)
class BenchResult:
    """Statistics of one timed measurement (seconds)."""

    name: str
    best: float
    median: float
    mean: float
    repeats: int
    meta: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def of(
        cls, name: str, walls: list[float], meta: dict[str, Any] | None = None
    ) -> BenchResult:
        """The row of ``walls``: the fastest, the :func:`statistics.median`
        (the mean of the two middle values for an even count), the mean."""
        median, mean = statistics.median(walls), statistics.fmean(walls)
        return cls(name, min(walls), median, mean, len(walls), meta or {})

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "best_s": self.best,
            "median_s": self.median,
            "mean_s": self.mean,
            "repeats": self.repeats,
            **({"meta": self.meta} if self.meta else {}),
        }


class BenchReport:
    """Accumulates :class:`BenchResult` rows and serialises the report."""

    def __init__(self, title: str) -> None:
        self.title = title
        self.results: list[BenchResult] = []

    def add(self, result: BenchResult) -> None:
        self.results.append(result)

    def to_dict(self) -> dict[str, Any]:
        return {
            "title": self.title,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "results": [r.to_dict() for r in self.results],
        }

    def format_table(self) -> str:
        """Plain-text rendering for terminal output."""
        lines = [self.title, "-" * len(self.title)]
        width = max((len(r.name) for r in self.results), default=4)
        for r in self.results:
            lines.append(
                f"{r.name:<{width}}  best {1e3 * r.best:9.3f} ms  "
                f"median {1e3 * r.median:9.3f} ms"
            )
        return "\n".join(lines)

    def finish(self, out: str | None, problems: list[str] | None, passed: str) -> int:
        """Save the report to ``out`` (if given) and return the exit code.

        ``problems`` is None without ``--check`` (exit 0); otherwise each
        one is printed to stderr as ``CHECK FAILED: …`` (exit 1), or, if
        there are none, ``[--check passed: <passed>]`` (exit 0).
        """
        if out is not None:
            with open(out, "w", encoding="utf-8") as fh:
                json.dump(self.to_dict(), fh, indent=2)
                fh.write("\n")
            print(f"[report saved to {out}]")
        for problem in problems or ():
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
        if problems:
            return 1
        if problems is not None:
            print(f"[--check passed: {passed}]")
        return 0
