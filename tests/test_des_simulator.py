"""Tests for the simulation kernel: processes, clock, signals, errors."""

import heapq

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.des import Hold, Signal, Simulator, SimulationError, Wait
from repro.guard import GuardConfig, InvariantMonitor
from repro.obs.profile import SimProfiler


def test_hold_advances_clock():
    sim = Simulator()
    times = []

    def proc(sim):
        yield Hold(2.5)
        times.append(sim.now)
        yield Hold(1.5)
        times.append(sim.now)

    sim.spawn("p", proc(sim))
    sim.run()
    assert times == [2.5, 4.0]


def test_two_processes_interleave_deterministically():
    sim = Simulator()
    log = []

    def proc(sim, period, label, n):
        for _ in range(n):
            yield Hold(period)
            log.append((sim.now, label))

    sim.spawn("a", proc(sim, 1.0, "a", 3))
    sim.spawn("b", proc(sim, 1.5, "b", 2))
    sim.run()
    # At t == 3.0, b resumes first: its Hold was scheduled at t == 1.5,
    # before a's at t == 2.0, and ties fire in scheduling order.
    assert log == [(1.0, "a"), (1.5, "b"), (2.0, "a"), (3.0, "b"), (3.0, "a")]


def test_signal_wait_and_payload():
    sim = Simulator()
    sig = Signal("data")
    received = []

    def waiter(sim):
        payload = yield Wait(sig)
        received.append((sim.now, payload))

    def sender(sim):
        yield Hold(5.0)
        sig.trigger(sim, {"value": 7})

    sim.spawn("w", waiter(sim))
    sim.spawn("s", sender(sim))
    sim.run()
    assert received == [(5.0, {"value": 7})]


def test_signal_wakes_all_current_waiters_only():
    sim = Simulator()
    sig = Signal()
    woken = []

    def waiter(sim, label):
        yield Wait(sig)
        woken.append(label)

    def late_waiter(sim):
        yield Hold(2.0)
        yield Wait(sig)  # waits for a second trigger that never comes
        woken.append("late")

    def sender(sim):
        yield Hold(1.0)
        sig.trigger(sim)

    sim.spawn("w1", waiter(sim, "w1"))
    sim.spawn("w2", waiter(sim, "w2"))
    sim.spawn("late", late_waiter(sim))
    sim.spawn("s", sender(sim))
    sim.run()
    assert woken == ["w1", "w2"]


def test_run_until_horizon_resumable():
    sim = Simulator()
    ticks = []

    def ticker(sim):
        while True:
            yield Hold(1.0)
            ticks.append(sim.now)

    sim.spawn("t", ticker(sim))
    sim.run(until=3.5)
    assert sim.now == 3.5
    assert ticks == [1.0, 2.0, 3.0]
    sim.run(until=5.5)
    assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_process_return_value_and_done_signal():
    sim = Simulator()
    results = []

    def worker(sim):
        yield Hold(1.0)
        return 42

    def watcher(sim, proc):
        value = yield Wait(proc.done)
        results.append(value)

    p = sim.spawn("w", worker(sim))
    sim.spawn("watch", watcher(sim, p))
    sim.run()
    assert p.result == 42
    assert not p.alive
    assert results == [42]


def test_process_error_aborts_run():
    sim = Simulator()

    def bad(sim):
        yield Hold(1.0)
        raise ValueError("boom")

    sim.spawn("bad", bad(sim))
    with pytest.raises(SimulationError, match="bad"):
        sim.run()


def test_yield_garbage_is_an_error():
    sim = Simulator()

    def bad(sim):
        yield 123

    sim.spawn("bad", bad(sim))
    with pytest.raises(SimulationError, match="expected Hold"):
        sim.run()


def test_negative_hold_rejected():
    with pytest.raises(ValueError):
        Hold(-1.0)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.at(1.0, sim.stop)
    sim.run()
    with pytest.raises(ValueError):
        sim.at(0.5, lambda: None)


def test_stop_halts_loop():
    sim = Simulator()
    ticks = []

    def ticker(sim):
        while True:
            yield Hold(1.0)
            ticks.append(sim.now)
            if sim.now >= 3.0:
                sim.stop()

    sim.spawn("t", ticker(sim))
    sim.run()
    assert ticks == [1.0, 2.0, 3.0]


def test_yield_none_requeues_same_time():
    sim = Simulator()
    log = []

    def a(sim):
        log.append("a1")
        yield None
        log.append("a2")

    def b(sim):
        log.append("b1")
        yield None
        log.append("b2")

    sim.spawn("a", a(sim))
    sim.spawn("b", b(sim))
    sim.run()
    assert log == ["a1", "b1", "a2", "b2"]
    assert sim.now == 0.0


def run_until_signal(sim, signal, horizon=None):
    """Run ``sim`` until ``signal`` is next triggered; ``True`` if it
    fired, ``False`` if the queue drained or the horizon came first."""
    fired = []

    def watcher(sim):
        yield Wait(signal)
        fired.append(sim.now)
        sim.stop()

    sim.spawn("watcher", watcher(sim))
    sim.run(until=horizon)
    return bool(fired)


def test_run_until_signal():
    sim = Simulator()
    sig = Signal()

    def sender(sim):
        yield Hold(2.0)
        sig.trigger(sim)
        yield Hold(100.0)

    sim.spawn("s", sender(sim))
    fired = run_until_signal(sim, sig)
    assert fired
    assert sim.now == 2.0


def test_run_until_signal_horizon_miss():
    sim = Simulator()
    sig = Signal()

    def nothing(sim):
        yield Hold(10.0)

    sim.spawn("n", nothing(sim))
    fired = run_until_signal(sim, sig, horizon=1.0)
    assert not fired
    assert sim.now == 1.0


def test_at_binds_args_and_runs_at_time():
    sim = Simulator()
    calls = []
    sim.at(3.0, lambda x, y: calls.append((sim.now, x, y)), "a", 7)
    sim.run()
    assert calls == [(3.0, "a", 7)]


def test_at_rejects_past_and_non_finite_times():
    sim = Simulator()

    def advance(sim):
        yield Hold(5.0)

    sim.spawn("p", advance(sim))
    sim.run()
    with pytest.raises(ValueError, match="past"):
        sim.at(4.0, lambda: None)
    with pytest.raises(ValueError, match="finite"):
        sim.at(float("inf"), lambda: None)
    with pytest.raises(ValueError, match="finite"):
        sim.at(float("nan"), lambda: None)


def test_at_event_is_cancellable():
    sim = Simulator()
    calls = []
    event = sim.at(1.0, calls.append, "doomed")
    sim.at(2.0, calls.append, "kept")
    event.cancel()
    sim.run()
    assert calls == ["kept"]


# ----------------------------------------------------------------------
# run(until=...) boundary semantics
# ----------------------------------------------------------------------
def test_event_exactly_at_until_fires():
    """`until` is an inclusive horizon: an event scheduled exactly there
    runs, and the clock ends on its timestamp."""
    sim = Simulator()
    fired = []
    sim.at(5.0, fired.append, "at-horizon")
    sim.at(5.000001, fired.append, "past-horizon")
    sim.run(until=5.0)
    assert fired == ["at-horizon"]
    assert sim.now == 5.0


def test_until_with_only_later_events_advances_clock_to_until():
    sim = Simulator()
    fired = []
    sim.at(10.0, fired.append, "later")
    sim.run(until=3.0)
    assert fired == []
    assert sim.now == 3.0
    # The event stays queued and fires on a subsequent run().
    sim.run()
    assert fired == ["later"]
    assert sim.now == 10.0


def test_until_with_empty_queue_leaves_clock_at_last_event():
    sim = Simulator()
    sim.at(1.0, lambda: None)
    sim.run(until=100.0)
    # Queue drained before the horizon: now is the last event time, not
    # the horizon (run() only advances the clock to `until` when events
    # remain pending past it).
    assert sim.now == 1.0


def test_until_before_now_raises():
    sim = Simulator()
    sim.at(2.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError, match="before now"):
        sim.run(until=1.0)


def test_run_until_signal_fires_exactly_at_horizon():
    """A signal triggered exactly at the horizon wins the tie: the
    triggering event is at the horizon, so it dispatches before the
    loop checks `next_time > until`."""
    sim = Simulator()
    sig = Signal("s")

    def trigger(sim):
        yield Hold(5.0)
        sig.trigger(sim)

    sim.spawn("t", trigger(sim))
    assert run_until_signal(sim, sig, horizon=5.0) is True
    assert sim.now == 5.0


def test_run_until_signal_just_past_horizon_returns_false():
    sim = Simulator()
    sig = Signal("s")

    def trigger(sim):
        yield Hold(5.0)
        sig.trigger(sim)

    sim.spawn("t", trigger(sim))
    assert run_until_signal(sim, sig, horizon=4.999) is False
    assert sim.now == 4.999


# ----------------------------------------------------------------------
# Profiler hook
# ----------------------------------------------------------------------
def test_attach_profiler_observes_every_dispatch():
    class Recorder:
        def __init__(self):
            self.events = []

        def record(self, event):
            self.events.append(event.time)

    sim = Simulator()
    recorder = Recorder()
    assert sim.attach_profiler(recorder) is sim
    sim.at(1.0, lambda: None)
    sim.at(2.0, lambda: None)
    sim.at(2.0, lambda: None)
    sim.run()
    assert recorder.events == [1.0, 2.0, 2.0]


def test_profiled_run_matches_unprofiled_run():
    def workload(sim, log):
        def proc(sim, period, n):
            for _ in range(n):
                yield Hold(period)
                log.append(sim.now)

        sim.spawn("a", proc(sim, 1.0, 5))
        sim.spawn("b", proc(sim, 1.7, 4))

    class Counter:
        n = 0

        def record(self, event):
            self.n += 1

    plain_log, prof_log = [], []
    sim1 = Simulator()
    workload(sim1, plain_log)
    sim1.run()
    sim2 = Simulator()
    counter = Counter()
    sim2.attach_profiler(counter)
    workload(sim2, prof_log)
    sim2.run()
    assert plain_log == prof_log
    assert sim1.now == sim2.now
    assert counter.n > 0


# ----------------------------------------------------------------------
# One dispatch loop, whatever sits in the observer slot
# ----------------------------------------------------------------------
def _observed_run(observer, *, until=None, poison=None):
    """Run one fixed process set; return what the loop did and saw."""
    sim = Simulator()
    profiler = monitor = None
    if observer != "none":
        profiler = SimProfiler()
        sim.attach_profiler(profiler)
    if observer == "monitor+profiler":
        # No ChainRun behind this simulator: count and forward only.
        monitor = InvariantMonitor(GuardConfig(check_every=10**9))
        sim.attach_monitor(monitor)
        assert monitor.chain is profiler
    log = []

    def proc(sim, label, period, n):
        for _ in range(n):
            yield Hold(period)
            log.append((sim.now, label))

    sim.spawn("a", proc(sim, "a", 1.0, 6))
    sim.spawn("b", proc(sim, "b", 1.5, 4))  # ties with "a" at t = 3, 6
    sim.at(2.0, log.append, (2.0, "at"))
    if poison is not None:
        sim.at(poison, lambda: 1 / 0)
    if until is None:
        # stop() from inside a callback, with same-time events behind it.
        sim.at(4.5, lambda: (log.append((sim.now, "stop")), sim.stop()))
        sim.at(4.5, log.append, (4.5, "after-stop"))
    error = None
    try:
        sim.run(until=until)
    except SimulationError as exc:
        error = exc
    seen = None if profiler is None else profiler.n_dispatched
    if monitor is not None:
        assert monitor.events_seen == seen
    return log, sim.n_dispatched, sim.now, seen, error


@pytest.mark.parametrize("observer", ["none", "profiler", "monitor+profiler"])
def test_dispatch_loop_is_the_same_under_every_observer(observer):
    log, n_dispatched, now, seen, error = _observed_run(observer)
    assert error is None
    # "b" (scheduled at t = 1.5) resumes before "a" (scheduled at t = 2)
    # at the t = 3 tie; stop() halts after its own event, so the
    # same-time event queued behind it never fires.
    assert log == [
        (1.0, "a"), (1.5, "b"), (2.0, "at"), (2.0, "a"),
        (3.0, "b"), (3.0, "a"), (4.0, "a"), (4.5, "stop"),
    ]  # fmt: skip
    assert (n_dispatched, now) == (10, 4.5)
    assert seen in (None, n_dispatched)  # the observer saw every dispatch

    # A raising callback aborts the run as SimulationError, after the
    # observer has seen the event that raised.
    log, n_dispatched, now, seen, error = _observed_run(
        observer, until=10.0, poison=2.5
    )
    assert isinstance(error, SimulationError)
    assert isinstance(error.__cause__, ZeroDivisionError)
    assert log[-1] == (2.0, "a") and now == 2.5
    assert seen in (None, n_dispatched)


# ----------------------------------------------------------------------
# The one-pop-per-event loop against the loop it replaced
# ----------------------------------------------------------------------
def _peek_time(queue):
    """``EventQueue.peek_time`` as it was before ``pop_due`` replaced it."""
    heap = queue._heap
    while heap:
        entry = heap[0]
        if entry[2].cancelled:
            heapq.heappop(heap)
            queue._n_cancelled -= 1
            continue
        return entry[0]
    return None


def _pop_at(queue, time):
    """``EventQueue.pop_at`` as it was before ``pop_due`` replaced it."""
    heap = queue._heap
    while heap:
        head_time, _, event = heap[0]
        if event.cancelled:
            heapq.heappop(heap)
            queue._n_cancelled -= 1
        elif head_time != time:
            return None
        else:
            heapq.heappop(heap)
            event._queue = None
            return event
    return None


class _PeekPopSimulator(Simulator):
    """``Simulator`` with the previous ``run``: peek, then drain a batch."""

    def run(self, until=None):
        if self._running:
            raise SimulationError("run() called re-entrantly")
        if until is not None and until < self._now:
            raise ValueError(f"until={until} is before now={self._now}")
        self._running = True
        self._stop_requested = False
        queue = self._queue
        record = None if self.profiler is None else self.profiler.record
        try:
            while not self._stop_requested:
                next_time = _peek_time(queue)
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    self._now = until
                    break
                self._now = next_time
                event = _pop_at(queue, next_time)
                batch_n = 0
                while event is not None:
                    batch_n += 1
                    if record is not None:
                        record(event)
                    try:
                        event.callback(*event.args)
                    except BaseException as exc:  # noqa: BLE001
                        self._failure = (None, exc)
                        self._stop_requested = True
                        break
                    if self._stop_requested:
                        break
                    event = _pop_at(queue, next_time)
                self.n_dispatched += batch_n
        finally:
            self._running = False
        if self._failure is not None:
            process, exc = self._failure
            self._failure = None
            where = f"process {process.name!r}" if process else "scheduled callback"
            raise SimulationError(f"{where} failed at t={self._now}: {exc!r}") from exc


def _play(sim, events, precancelled, untils):
    """Run one generated schedule; return everything the loop decided."""
    log, handles = [], []

    def proc(label, delay):
        log.append((label, "start", sim.now))
        yield None  # requeued at the same timestamp, behind the batch
        log.append((label, "again", sim.now))
        yield Hold(delay)
        log.append((label, "held", sim.now))
        if delay == 1.0:
            raise RuntimeError(f"{label} failed")

    def fire(label, action, arg):
        log.append((label, action, sim.now))
        if action == "more":  # a new event at now + arg (arg = 0: same batch)
            handles.append(sim.at(sim.now + arg, fire, label + "+", "log", None))
        elif action == "cancel":  # any event so far: fired, pending, the head
            handles[arg % len(handles)].cancel()
        elif action == "stop":
            sim.stop()
        elif action == "raise":
            raise RuntimeError(f"{label} raised")
        elif action == "spawn":
            sim.spawn(label, proc(label, arg))

    for i, (time, action, arg) in enumerate(events):
        handles.append(sim.at(time, fire, f"e{i}", action, arg))
    for index in precancelled:
        handles[index % len(handles)].cancel()
    outcomes = []
    for until in untils:
        error = None
        try:
            sim.run(until=until)
        except (SimulationError, ValueError) as exc:  # ValueError: until < now
            error = f"{type(exc).__name__}: {exc}"
        outcomes.append(
            (sim.now, sim.n_dispatched, len(sim._queue), error)
        )
    return log, outcomes


# Few distinct times: same-time batches, events exactly on a horizon and
# runs resuming inside a timestamp are the common case, not the rare one.
_EVENT_TIMES = st.sampled_from([0.0, 1.0, 2.0, 2.5, 4.0])
_DELAYS = st.sampled_from([0.0, 0.5, 1.0])
_ACTIONS = st.one_of(
    st.tuples(st.just("log"), st.none()),
    st.tuples(st.just("more"), _DELAYS),
    st.tuples(st.just("cancel"), st.integers(0, 10**6)),
    st.tuples(st.just("stop"), st.none()),
    st.tuples(st.just("raise"), st.none()),
    st.tuples(st.just("spawn"), _DELAYS),
)
_UNTILS = st.one_of(st.none(), st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 9.0]))


@given(
    st.lists(
        st.tuples(_EVENT_TIMES, _ACTIONS).map(lambda e: (e[0], *e[1])),
        min_size=1,
        max_size=14,
    ),
    st.lists(st.integers(0, 10**6), max_size=3),
    st.lists(_UNTILS, min_size=1, max_size=4),
)
def test_one_pop_per_event_loop_matches_the_peek_then_drain_loop(
    events, precancelled, untils
):
    """Same callback order, clock, event count, queue length and error
    text after every ``run()`` call of every schedule."""
    new = _play(Simulator(), events, precancelled, untils)
    old = _play(_PeekPopSimulator(), events, precancelled, untils)
    assert new == old
