"""§3 — the non-centralized load-balancing algorithm families.

Compares the classical synchronous schemes (Cybenko diffusion,
dimension exchange) and the Bertsekas–Tsitsiklis lightest-neighbour rule
on stale neighbour views — the variant the paper selects — on the
solver's chain topology, plus the centralized baseline's message cost.
Supports the paper's §3 choice: the lightest-neighbour rule balances
from local, possibly outdated information only, which is what the AIAC
coupling requires.
"""

import networkx as nx
import numpy as np
from conftest import save_report

from repro.analysis.reporting import format_table
from repro.balancing import (
    ZooParams,
    balance,
    centralized_balance,
    imbalance_ratio,
    make_policy,
)
from repro.balancing.centralized import centralized_cost_model
from repro.balancing.zoo import ActiveView


def test_balancing_families(once):
    def run_all():
        n = 16
        graph = nx.path_graph(n)
        load = np.zeros(n)
        load[0] = 160.0  # all load on one end of the chain

        rows = []
        final, rounds = balance(graph, load, "diffusion", tol=1e-3)
        rows.append(("diffusion (Cybenko)", rounds, imbalance_ratio(final), "sync"))
        final, rounds = balance(graph, load, "dimension_exchange", tol=1e-3)
        rows.append(("dimension exchange", rounds, imbalance_ratio(final), "sync"))
        # The Bertsekas model balances to within a *threshold-bounded
        # neighbourhood* of uniform (that is exactly what B&T prove):
        # on a chain the steady profile is geometric with ratio θ, so
        # max/mean plateaus at n(1-1/θ)/(1-θ^-n).  Two thresholds show
        # the plateau tightening.  It never reaches a small tolerance,
        # so drive the policy until it has nothing left to propose.
        view = ActiveView.fault_free(graph)
        for theta in (1.2, 1.05):
            params = ZooParams(threshold_ratio=theta)
            policy = make_policy("bertsekas", params)
            current, transfers, idle = load.copy(), 0, 0
            while idle < params.staleness:  # every stale view has caught up
                plan = policy.plan(view, current)
                idle = 0 if plan else idle + 1
                transfers += len(plan)
                for u, v, amount in plan:
                    current[u] -= amount
                    current[v] += amount
            bound = n * (1 - 1 / theta) / (1 - theta ** (-n))
            rows.append(
                (
                    f"bertsekas (lightest, θ={theta})",
                    transfers,
                    imbalance_ratio(current),
                    f"stale views (bound {bound:.2f})",
                )
            )
        balanced, plan = centralized_balance(load)
        rows.append(
            ("centralized", len(plan), imbalance_ratio(balanced), "global sync")
        )
        table = format_table(
            ["scheme", "rounds/transfers", "final max/mean", "coordination"],
            rows,
        )
        cost16 = centralized_cost_model(16, latency=15e-3)
        cost128 = centralized_cost_model(128, latency=15e-3)
        return (
            "Non-centralized LB families on a 16-node chain "
            "(all load starts at node 0)\n"
            f"{table}\n"
            f"centralized round cost grows linearly: "
            f"{cost16:.3f}s @16 nodes -> {cost128:.3f}s @128 nodes"
        ), rows

    report, rows = once(run_all)
    save_report("balancing_algorithms", report)

    by_name = {r[0]: r for r in rows}
    assert by_name["diffusion (Cybenko)"][2] < 1.05
    assert by_name["dimension exchange"][2] < 1.05
    # Threshold-bounded plateaus (the B&T guarantee), tighter for the
    # tighter threshold.
    theta_12 = by_name["bertsekas (lightest, θ=1.2)"][2]
    theta_105 = by_name["bertsekas (lightest, θ=1.05)"][2]
    assert theta_12 < 16 * (1 - 1 / 1.2) / (1 - 1.2 ** (-16)) * 1.1
    assert theta_105 < theta_12
    assert theta_105 < 1.6
