"""Spectral quantities of first-order diffusion.

One diffusion round is ``x <- M x`` with the doubly-stochastic
``M = I - α L`` (``L`` the graph Laplacian); it contracts the load
error by ``M``'s second-largest eigenvalue modulus ``λ₂`` per round —
slow on high-diameter graphs (a chain needs O(n²) rounds).  ``λ₂`` is
what the second-order scheme
(:class:`repro.balancing.zoo.Accelerated`; Ghosh/Muthukrishnan,
Diekmann, Frommer & Monien) derives its momentum coefficient from; it is
computed here by dense eigendecomposition — these graphs are the size of
a processor pool, not a mesh.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

__all__ = ["safe_alpha", "diffusion_matrix", "second_eigenvalue"]


def safe_alpha(deg_max: int) -> float:
    """The diffusion parameter every scheme here uses: ``1/(deg_max+1)``.

    Beyond ``1/deg_max`` the iteration matrix has an eigenvalue below
    ``-1`` on high-degree graphs (e.g. stars) and diffusion oscillates
    instead of converging; this choice stays inside that limit on every
    graph and keeps ``M`` entrywise non-negative.
    """
    return 1.0 / (deg_max + 1.0)


def diffusion_matrix(graph: nx.Graph) -> np.ndarray:
    """The doubly-stochastic first-order diffusion matrix ``M``."""
    import networkx as nx

    if graph.number_of_nodes() == 0:
        raise ValueError("graph is empty")
    alpha = safe_alpha(max(d for _, d in graph.degree()))
    # Built from the adjacency: ``nx.laplacian_matrix`` loads scipy.sparse.
    adjacency = nx.to_numpy_array(graph)
    lap = np.diag(adjacency.sum(axis=1)) - adjacency
    return np.eye(graph.number_of_nodes()) - alpha * lap


def second_eigenvalue(matrix: np.ndarray) -> float:
    """``λ₂``: the second-largest eigenvalue modulus of ``M``.

    For a connected graph's diffusion matrix the largest is exactly 1
    (the conserved uniform mode); ``λ₂ < 1`` governs the balancing rate.
    """
    eigenvalues = np.linalg.eigvalsh(matrix)
    moduli = np.sort(np.abs(eigenvalues))[::-1]
    if not math.isclose(moduli[0], 1.0, abs_tol=1e-9):
        raise ValueError(
            f"not a diffusion matrix: largest eigenvalue modulus {moduli[0]!r}"
        )
    if len(moduli) == 1:
        return 0.0
    return float(moduli[1])
