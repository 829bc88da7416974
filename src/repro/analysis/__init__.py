"""Analysis of run results: metrics, Gantt rendering, report tables."""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "idle_fraction": "metrics",
        "render_gantt": "gantt",
        "ascii_plot": "plots",
        "format_table": "reporting",
    },
)
