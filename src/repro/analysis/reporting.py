"""Plain-text tables for the benchmark harness.

Every benchmark prints the rows the paper reports (Table 1's
non-balanced / balanced / ratio line, Figure 5's time-vs-processors
series) through these formatters, so EXPERIMENTS.md and the bench output
stay visually comparable to the paper.
"""

from __future__ import annotations

from typing import Any, Sequence

__all__ = ["format_table"]


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or abs(value) < 1e-3:
            return f"{value:.3g}"
        return f"{value:,.1f}" if abs(value) >= 10 else f"{value:.2f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Render an aligned text table with a header rule."""
    if not headers:
        raise ValueError("headers must be non-empty")
    str_rows = [[_fmt(c) for c in row] for row in rows]
    for i, row in enumerate(str_rows):
        if len(row) != len(headers):
            raise ValueError(
                f"row {i} has {len(row)} cells, expected {len(headers)}"
            )
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    def line(cells: Sequence[str]) -> str:
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))

    out = [line(list(headers)), line(["-" * w for w in widths])]
    out.extend(line(r) for r in str_rows)
    return "\n".join(out)
