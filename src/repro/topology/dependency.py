"""Dependency graphs of block-decomposed iterations.

"The communications required for the execution of iteration (2) can be
described by means of a directed graph called the dependency graph"
(paper Section 1.1).  For the 1-D decompositions in this reproduction
the graph is a chain (``networkx.path_graph``); the helper here reports
the statistics of such a graph that justify the neighbour-local
balancing design.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

__all__ = ["dependency_graph_stats"]


def dependency_graph_stats(graph: nx.Graph) -> dict:
    """Degree/diameter statistics of a dependency graph.

    ``max_degree`` bounds the number of simultaneous balancing partners
    of a node; ``diameter`` bounds how many migrations a component may
    need to traverse the system.
    """
    import networkx as nx

    if graph.number_of_nodes() == 0:
        raise ValueError("graph is empty")
    degrees = [d for _, d in graph.degree()]
    connected = nx.is_connected(graph) if graph.number_of_nodes() > 1 else True
    return {
        "n_nodes": graph.number_of_nodes(),
        "n_edges": graph.number_of_edges(),
        "max_degree": max(degrees),
        "mean_degree": sum(degrees) / len(degrees),
        "connected": connected,
        "diameter": nx.diameter(graph) if connected else None,
    }
