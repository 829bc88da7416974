"""Synchronisation in virtual time: :class:`Barrier`, the global
synchronisation of SISC iterations."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.des.process import Signal

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.simulator import Simulator

__all__ = ["Barrier"]


class Barrier:
    """A reusable barrier for ``parties`` processes.

    Each participant calls :meth:`arrive` and waits on the returned
    signal; the last arrival releases everyone and resets the barrier
    for the next generation (the classic cyclic barrier).
    """

    __slots__ = ("name", "parties", "_arrived", "_signal", "generation")

    def __init__(self, parties: int, name: str = "") -> None:
        if parties < 1:
            raise ValueError(f"parties must be >= 1, got {parties}")
        self.name = name
        self.parties = parties
        self._arrived = 0
        self._signal = Signal(f"barrier:{name}")
        self.generation = 0

    def arrive(self, sim: "Simulator") -> Signal | None:
        """Register arrival.

        Returns the signal to wait on, or ``None`` when this arrival was
        the last of the generation (the caller must *not* wait; everyone
        else has been released).
        """
        self._arrived += 1
        if self._arrived >= self.parties:
            self._arrived = 0
            self.generation += 1
            released, self._signal = self._signal, Signal(f"barrier:{self.name}")
            released.trigger(sim)
            return None
        return self._signal
