"""Logical organizations of processors and the balancing zoo's graphs.

The paper organises processors in a logical linear chain (the 1-D
decomposition of the state vector) and, for the heterogeneous
experiment, chooses that organisation *irregular* — machines of
different sites and speeds interleaved along the chain, "a grid
computing context not favorable to load balancing".  This package
provides the chain orderings (which host runs which rank) and the
arbitrary graphs the balancing zoo runs on.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "interleaved_sites_order": "logical",
        "TOPOLOGY_FAMILIES": "graphs",
        "Topology": "graphs",
        "TopologySpec": "graphs",
        "build_topology": "graphs",
        "spec_for_family": "graphs",
    },
)
