"""Edge colouring for dimension-exchange load balancing.

The second classical family the paper cites (Hosseini et al.; Cybenko):
instead of exchanging with all neighbours at once, a node pairs up with
*one* neighbour per round — the edges used in a round form a matching,
obtained from a proper edge colouring (on a hypercube the colours are
literally the dimensions, hence the name) — and each matched pair
averages its load.  The step rule is
:class:`repro.balancing.zoo.DimensionExchange`; this module computes the
matchings it cycles through.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

__all__ = ["edge_colouring"]


def edge_colouring(graph: nx.Graph) -> list[list[tuple]]:
    """Partition the edges into matchings (colour classes).

    Uses a greedy colouring of the line graph — at most ``2·deg_max - 1``
    colours, each class a valid matching.  Deterministic for a given
    node ordering.
    """
    colours: list[list[tuple]] = []
    # networkx yields each edge in insertion orientation, so normalize
    # the endpoint order before the deterministic sort — otherwise the
    # same graph built edge-by-edge in a different order produces
    # different matchings.
    edges = sorted(
        (tuple(sorted(e, key=str)) for e in graph.edges()),
        key=lambda e: (str(e[0]), str(e[1])),
    )
    busy: list[set] = []  # nodes used per colour
    for u, v in edges:
        for c, used in enumerate(busy):
            if u not in used and v not in used:
                colours[c].append((u, v))
                used.add(u)
                used.add(v)
                break
        else:
            colours.append([(u, v)])
            busy.append({u, v})
    return colours
