"""Edge-case tests of the DES process machinery not covered elsewhere."""

import pytest

from repro.des import Hold, Signal, Simulator, SimulationError, Wait


def test_process_done_signal_carries_return_value_to_multiple_watchers():
    sim = Simulator()
    got = []

    def worker(sim):
        yield Hold(1.0)
        return {"answer": 42}

    def watcher(sim, proc, label):
        value = yield Wait(proc.done)
        got.append((label, value["answer"]))

    p = sim.spawn("w", worker(sim))
    sim.spawn("w1", watcher(sim, p, "a"))
    sim.spawn("w2", watcher(sim, p, "b"))
    sim.run()
    assert sorted(got) == [("a", 42), ("b", 42)]


def test_signal_trigger_counts():
    sim = Simulator()
    sig = Signal("x")

    def fire(sim):
        yield Hold(1.0)
        sig.trigger(sim)
        yield Hold(1.0)
        sig.trigger(sim, payload=7)

    sim.spawn("f", fire(sim))
    sim.run()
    assert sig.trigger_count == 2


def test_error_in_scheduled_callback_aborts_run():
    sim = Simulator()

    def boom():
        raise RuntimeError("callback exploded")

    sim.at(1.0, boom)
    with pytest.raises(SimulationError, match="callback"):
        sim.run()


def test_simulation_continues_after_process_completes():
    sim = Simulator()
    log = []

    def short(sim):
        yield Hold(1.0)
        log.append("short done")

    def long(sim):
        yield Hold(5.0)
        log.append("long done")

    sim.spawn("s", short(sim))
    sim.spawn("l", long(sim))
    sim.run()
    assert log == ["short done", "long done"]
    assert sim.now == 5.0


def test_spawn_inside_process():
    sim = Simulator()
    log = []

    def child(sim, tag):
        yield Hold(0.5)
        log.append(tag)

    def parent(sim):
        yield Hold(1.0)
        sim.spawn("c1", child(sim, "c1"))
        yield Hold(1.0)
        sim.spawn("c2", child(sim, "c2"))

    sim.spawn("p", parent(sim))
    sim.run()
    assert log == ["c1", "c2"]


def test_nonfinite_event_time_rejected():
    sim = Simulator()
    with pytest.raises(ValueError, match="finite"):
        sim.at(float("inf"), lambda: None)
    with pytest.raises(ValueError):
        sim.at(sim.now - 1.0, lambda: None)


@pytest.mark.parametrize("duration", [float("nan"), float("inf"), -1e-300])
def test_hold_rejects_durations_the_clock_cannot_take(duration):
    """A NaN event time never matches or exceeds anything, so it used to
    spin ``run()`` forever (no horizon ended it); ``inf`` ran the clock
    to the value ``Simulator.at`` refuses."""
    with pytest.raises(ValueError, match="finite and >= 0"):
        Hold(duration)


def test_hold_accepts_zero_of_either_sign():
    assert Hold(0.0).duration == 0.0
    assert Hold(-0.0).duration == 0.0
    assert Hold(0).duration == 0


@pytest.mark.parametrize("duration", [float("nan"), float("inf")])
def test_process_yielding_a_bad_hold_fails_the_run_by_name(duration):
    sim = Simulator()
    log = []

    def bad(sim):
        yield Hold(1.0)
        yield Hold(duration)  # raises inside the process, at t = 1

    def bystander(sim):
        yield Hold(3.0)
        log.append(sim.now)

    proc = sim.spawn("bad-hold", bad(sim))
    sim.spawn("ok", bystander(sim))
    with pytest.raises(SimulationError, match="process 'bad-hold' failed at t=1.0"):
        sim.run(until=5.0)
    assert isinstance(proc.error, ValueError) and not proc.alive
    assert log == [] and sim.now == 1.0  # stopped there, finite clock


def test_run_until_before_now_rejected():
    sim = Simulator()
    sim.at(5.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.run(until=1.0)


def test_processes_list_tracks_spawns():
    sim = Simulator()

    def p(sim):
        yield Hold(1.0)

    sim.spawn("a", p(sim))
    sim.spawn("b", p(sim))
    assert [proc.name for proc in sim.processes] == ["a", "b"]
    sim.run()
    assert all(not proc.alive for proc in sim.processes)
