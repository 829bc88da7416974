"""Bookkeeping of who owns which components, including in-flight ones.

The global component index space ``[0, n_components)`` is partitioned in
contiguous, rank-ordered blocks over the chain.  A migration moves a
contiguous run of components from the edge of one block to the adjacent
edge of a neighbour's block; while the message is in flight the
components belong to neither node.  The registry tracks all three kinds
of ownership and checks the invariants that the load-balancing protocol
must preserve:

* **coverage** — owned blocks plus in-flight runs tile ``[0, n)`` exactly;
* **contiguity** — each rank's block is one interval;
* **order** — blocks appear in rank order along the chain.

Solvers update the registry at send and receive time; property-based
tests drive it with random migration sequences (DESIGN.md §7).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PartitionRegistry", "PartitionError"]


class PartitionError(RuntimeError):
    """An invariant of the partition was violated."""


def tiling_error(
    intervals: list[tuple[int, int, str]], n_components: int
) -> str | None:
    """Why ``(lo, hi, label)`` intervals fail to tile ``[0, n_components)``.

    The coverage walk shared by :meth:`PartitionRegistry.check` (the
    registry's own records) and the runtime guard (live blocks, see
    :func:`repro.guard.invariants.conservation_error`); ``None`` when
    the intervals tile the index space exactly.  Sorts ``intervals``.
    """
    intervals.sort()
    cursor = 0
    for lo, hi, label in intervals:
        if lo != cursor:
            verb = "lost" if lo > cursor else "duplicated"
            return (
                f"component(s) {verb} at index {min(lo, cursor)}: "
                f"{label} covers [{lo}, {hi}) but the cursor is at {cursor}"
            )
        cursor = hi
    if cursor != n_components:
        return f"coverage ends at {cursor}, expected {n_components} components"
    return None


@dataclass(slots=True, frozen=True)
class _InFlight:
    """A contiguous run of components travelling between two ranks."""

    lo: int
    hi: int
    src: int
    dst: int


class PartitionRegistry:
    """Tracks the contiguous block ``[lo, hi)`` of every rank.

    Parameters
    ----------
    n_components:
        Global number of components.
    n_ranks:
        Chain length; a rank migrates only to ``rank ± 1``.
    """

    def __init__(self, n_components: int, n_ranks: int) -> None:
        if n_ranks < 1:
            raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
        if n_components < n_ranks:
            raise ValueError(
                f"need at least one component per rank "
                f"({n_components} components, {n_ranks} ranks)"
            )
        self.n_components = n_components
        self.n_ranks = n_ranks
        base = n_components // n_ranks
        extra = n_components % n_ranks
        self._lo: list[int] = []
        self._hi: list[int] = []
        cursor = 0
        for r in range(n_ranks):
            size = base + (1 if r < extra else 0)
            self._lo.append(cursor)
            self._hi.append(cursor + size)
            cursor += size
        self._in_flight: list[_InFlight] = []
        self.check()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def block(self, rank: int) -> tuple[int, int]:
        """The ``[lo, hi)`` block currently owned by ``rank``."""
        return self._lo[rank], self._hi[rank]

    def n_local(self, rank: int) -> int:
        return self._hi[rank] - self._lo[rank]

    def sizes(self) -> list[int]:
        return [self.n_local(r) for r in range(self.n_ranks)]

    @property
    def n_in_flight(self) -> int:
        return sum(f.hi - f.lo for f in self._in_flight)

    def in_flight_runs(self) -> list[tuple[int, int, int, int]]:
        """``(lo, hi, src, dst)`` for every migration currently in flight.

        A read-only snapshot (used by :class:`repro.guard`'s
        conservation check to tile the global index space from an
        independent angle than :meth:`check`).
        """
        return [(f.lo, f.hi, f.src, f.dst) for f in self._in_flight]

    # ------------------------------------------------------------------
    # Migration lifecycle
    # ------------------------------------------------------------------
    def record_send(self, src: int, n: int, side: str) -> tuple[int, int]:
        """``src`` ships its ``n`` components nearest ``side``.

        Returns the global ``[lo, hi)`` range shipped.  ``side`` is from
        the sender's perspective: ``"left"`` ships to rank ``src - 1``.
        """
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        dst = src - 1 if side == "left" else src + 1
        if not 0 <= dst < self.n_ranks:
            raise PartitionError(f"rank {src} has no {side} neighbour")
        if not 0 < n < self.n_local(src):
            raise PartitionError(
                f"rank {src} cannot ship {n} of its {self.n_local(src)} components"
            )
        if side == "left":
            lo = self._lo[src]
            hi = lo + n
            self._lo[src] = hi
        else:
            hi = self._hi[src]
            lo = hi - n
            self._hi[src] = lo
        self._in_flight.append(_InFlight(lo=lo, hi=hi, src=src, dst=dst))
        self.check()
        return lo, hi

    def record_reabsorb(self, src: int, lo: int, hi: int) -> None:
        """``src`` took back the in-flight run ``[lo, hi)`` it had shipped.

        Recovery path for fault injection: when migration data exhausts
        its retransmission attempts without ever reaching the receiver,
        the sender merges the orphaned components back into its own
        block (they are still adjacent to it — the edge is frozen while
        the transfer is unresolved).
        """
        for i, flight in enumerate(self._in_flight):
            if flight.lo == lo and flight.hi == hi and flight.src == src:
                del self._in_flight[i]
                break
        else:
            raise PartitionError(
                f"rank {src} re-absorbed [{lo}, {hi}) which is not in "
                f"flight from it"
            )
        if hi == self._lo[src]:
            self._lo[src] = lo
        elif lo == self._hi[src]:
            self._hi[src] = hi
        else:
            raise PartitionError(
                f"run [{lo}, {hi}) is not adjacent to rank {src}'s block "
                f"[{self._lo[src]}, {self._hi[src]})"
            )
        self.check()

    def record_receive(self, dst: int, lo: int, hi: int) -> None:
        """``dst`` merged the in-flight run ``[lo, hi)``."""
        for i, flight in enumerate(self._in_flight):
            if flight.lo == lo and flight.hi == hi and flight.dst == dst:
                del self._in_flight[i]
                break
        else:
            raise PartitionError(
                f"rank {dst} received [{lo}, {hi}) which is not in flight to it"
            )
        if hi == self._lo[dst]:
            self._lo[dst] = lo
        elif lo == self._hi[dst]:
            self._hi[dst] = hi
        else:
            raise PartitionError(
                f"run [{lo}, {hi}) is not adjacent to rank {dst}'s block "
                f"[{self._lo[dst]}, {self._hi[dst]})"
            )
        self.check()

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def check(self) -> None:
        """Raise :class:`PartitionError` if any invariant is broken."""
        intervals: list[tuple[int, int, str]] = []
        for r in range(self.n_ranks):
            lo, hi = self._lo[r], self._hi[r]
            if lo > hi:
                raise PartitionError(f"rank {r} has negative block [{lo}, {hi})")
            if lo < hi:
                intervals.append((lo, hi, f"rank {r}"))
        for f in self._in_flight:
            intervals.append((f.lo, f.hi, f"in-flight {f.src}->{f.dst}"))
        error = tiling_error(intervals, self.n_components)
        if error is not None:
            raise PartitionError(error)
        # Rank order: non-empty blocks must be ordered by rank.
        last_hi = 0
        for r in range(self.n_ranks):
            lo, hi = self._lo[r], self._hi[r]
            if lo < hi:
                if lo < last_hi:
                    raise PartitionError(
                        f"rank {r} block [{lo}, {hi}) overlaps or precedes "
                        f"an earlier rank's block"
                    )
                last_hi = hi
