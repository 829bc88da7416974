"""Chain orderings: which host runs which rank.

A chain order is a permutation ``order`` with ``order[rank] ==
host_index``; it is passed to the solvers as ``host_order``.  Without
one, rank ``i`` runs on host ``i`` (the local cluster).
:func:`interleaved_sites_order` goes round-robin across sites, so chain
neighbours usually sit on *different* sites and every boundary exchange
crosses a slow link: the paper's "logical organization ... chosen
irregular in order to get a grid computing context not favorable to
load balancing".
"""

from __future__ import annotations

from repro.grid.platform import Platform

__all__ = ["interleaved_sites_order"]


def interleaved_sites_order(platform: Platform) -> list[int]:
    """Round-robin across sites: adjacent ranks land on different sites.

    With sites A, B, C of equal size the chain reads
    ``A0 B0 C0 A1 B1 C1 …`` — every halo exchange is inter-site.
    """
    by_site: dict[str, list[int]] = {}
    for i, host in enumerate(platform.hosts):
        by_site.setdefault(host.site, []).append(i)
    queues = [list(v) for _, v in sorted(by_site.items())]
    order: list[int] = []
    cursor = 0
    while any(queues):
        queue = queues[cursor % len(queues)]
        if queue:
            order.append(queue.pop(0))
        cursor += 1
    return order
