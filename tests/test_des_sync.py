"""Tests for the virtual-time barrier."""

import pytest

from repro.des import Barrier, Hold, Simulator, Wait


def test_barrier_releases_all_on_last_arrival():
    sim = Simulator()
    barrier = Barrier(3)
    passed = []

    def party(sim, label, delay):
        yield Hold(delay)
        signal = barrier.arrive(sim)
        if signal is not None:
            yield Wait(signal)
        passed.append((label, sim.now))

    sim.spawn("a", party(sim, "a", 1.0))
    sim.spawn("b", party(sim, "b", 3.0))
    sim.spawn("c", party(sim, "c", 2.0))
    sim.run()
    assert sorted(t for _, t in passed) == [3.0, 3.0, 3.0]
    assert barrier.generation == 1


def test_barrier_is_cyclic():
    sim = Simulator()
    barrier = Barrier(2)
    crossings = []

    def party(sim, label, period):
        for _ in range(3):
            yield Hold(period)
            signal = barrier.arrive(sim)
            if signal is not None:
                yield Wait(signal)
            crossings.append((label, sim.now))

    sim.spawn("fast", party(sim, "fast", 1.0))
    sim.spawn("slow", party(sim, "slow", 2.0))
    sim.run()
    times = sorted(t for _, t in crossings)
    # Lock-step: both cross at the slow party's pace.
    assert times == [2.0, 2.0, 4.0, 4.0, 6.0, 6.0]
    assert barrier.generation == 3


def test_barrier_single_party_never_blocks():
    sim = Simulator()
    barrier = Barrier(1)
    assert barrier.arrive(sim) is None
    assert barrier.generation == 1


def test_barrier_requires_positive_parties():
    with pytest.raises(ValueError):
        Barrier(0)
