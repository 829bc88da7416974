"""Named experimental scenarios: one builder per paper experiment."""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "Figure5Scenario": "scenarios",
        "IntegrityScenario": "scenarios",
        "ScaleScenario": "scenarios",
        "Table1Scenario": "scenarios",
        "ModelsComparisonScenario": "scenarios",
        "TraceFigureScenario": "scenarios",
        "ResilienceScenario": "scenarios",
        "SoakScenario": "scenarios",
    },
)
