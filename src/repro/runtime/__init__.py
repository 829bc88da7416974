"""PM2-like runtime layer: nodes, asynchronous messaging, tracing.

The paper implemented its algorithms on PM2, a multi-threaded runtime in
which receive handlers run as threads sharing the node's memory, and
sends are asynchronous (a communication thread is spawned).  This
package reproduces that programming model on the DES:

* :class:`~repro.runtime.node.GridNode` — one per simulated machine;
  registers named receive handlers and exposes :meth:`send`.
* Handlers run as zero-virtual-time events at message arrival, mutating
  node state exactly like a PM2 handler thread (atomic between yields).
* Per-channel "communication in progress" flags implement the mutual
  exclusion of the paper's Algorithm 1/4 (a node never starts a second
  send of the same kind to the same neighbour while one is in flight).
* :class:`~repro.runtime.tracer.Tracer` — structured event recording used
  by the Gantt renderings (Figures 1–4) and all metrics.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "Message": "message",
        "GridNode": "node",
        "Tracer": "tracer",
        "IterationSpan": "tracer",
        "IdleSpan": "tracer",
        "MessageRecord": "tracer",
        "MigrationRecord": "tracer",
        "ResidualRecord": "tracer",
    },
)
