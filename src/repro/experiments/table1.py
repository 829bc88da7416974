"""Table 1: heterogeneous 3-site grid, non-balanced vs balanced AIAC.

Paper result::

    version          non-balanced   balanced   ratio
    execution time          515.3      105.5    4.88

on fifteen machines over Belfort, Montbéliard and Grenoble, machine
types from a PII-400 to an Athlon-1.4G, multi-user load, irregular
logical organization.  The paper notes the ratio is *smaller* than on
the local cluster because data migrations cost more over slow links —
our acceptance band is a ratio in [2, 9] with the balanced version
winning, and we additionally check the qualitative claim by reporting
the network bytes spent on migrations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.reporting import format_table
from repro.models import VERSIONS, run_model
from repro.workloads.scenarios import Table1Scenario

__all__ = ["Table1Result", "run_table1"]


@dataclass(slots=True)
class Table1Result:
    time_unbalanced: float
    time_balanced: float
    migrations: int
    components_migrated: int
    final_sizes: list[int]

    @property
    def ratio(self) -> float:
        return self.time_unbalanced / self.time_balanced

    def report(self) -> str:
        table = format_table(
            ["version", "non-balanced", "balanced", "ratio"],
            [
                (
                    "execution time (s)",
                    self.time_unbalanced,
                    self.time_balanced,
                    self.ratio,
                )
            ],
        )
        return (
            "Table 1 — heterogeneous 3-site grid (15 machines)\n"
            f"{table}\n"
            f"paper: 515.3 / 105.5 / 4.88; "
            f"migrations={self.migrations} "
            f"({self.components_migrated} components), "
            f"final block sizes={self.final_sizes}"
        )


def _sweep_task(scenario: Table1Scenario, version: str, sidecar=None) -> dict:
    """One Table 1 run — ``version`` in :data:`~repro.models.VERSIONS` —
    reduced to its sweep payload."""
    platform = scenario.platform()
    result = run_model(
        VERSIONS[version],
        scenario,
        platform=platform,
        host_order=scenario.host_order(platform),
    )
    if not result.converged:
        raise RuntimeError(f"table1 {version} run did not converge")
    if sidecar is not None:
        sidecar.collect(result, run=version)
    return {
        "time": result.time,
        "migrations": result.n_migrations,
        "components_migrated": result.components_migrated,
        "final_sizes": list(result.meta.get("final_sizes", ())),
    }


def run_table1(
    scenario: Table1Scenario | None = None, *, sidecar=None, engine=None
) -> Table1Result:
    """Run the Table 1 experiment (use ``Table1Scenario.quick()`` for CI).

    ``engine`` optionally supplies a :class:`~repro.exec.SweepEngine`
    (worker pool + run cache) for the two independent runs; the result
    values are byte-identical to the serial path.  ``sidecar``
    optionally attaches a :class:`~repro.obs.harness.MetricsSidecar`
    scraping both runs, serially in process (see
    :func:`repro.exec.sweep`).
    """
    from repro.exec import sweep

    scenario = scenario if scenario is not None else Table1Scenario()
    unbalanced, balanced = sweep(
        engine,
        "table1",
        scenario,
        _sweep_task,
        [{"version": version} for version in VERSIONS],
        sidecar=sidecar,
    )
    return Table1Result(
        time_unbalanced=unbalanced["time"],
        time_balanced=balanced["time"],
        migrations=balanced["migrations"],
        components_migrated=balanced["components_migrated"],
        final_sizes=balanced["final_sizes"],
    )
