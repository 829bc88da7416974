"""Tests for the deterministic event queue."""

from hypothesis import given
from hypothesis import strategies as st

from repro.des.event import EventQueue


def test_pop_orders_by_time():
    q = EventQueue()
    order = []
    q.push_call(3.0, lambda: order.append("c"), ())
    q.push_call(1.0, lambda: order.append("a"), ())
    q.push_call(2.0, lambda: order.append("b"), ())
    while (e := q.pop()) is not None:
        e.callback()
    assert order == ["a", "b", "c"]


def test_ties_break_in_scheduling_order():
    q = EventQueue()
    order = []
    for i in range(10):
        q.push_call(1.0, lambda i=i: order.append(i), ())
    while (e := q.pop()) is not None:
        e.callback()
    assert order == list(range(10))


def test_cancelled_events_skipped():
    q = EventQueue()
    fired = []
    e1 = q.push_call(1.0, lambda: fired.append(1), ())
    q.push_call(2.0, lambda: fired.append(2), ())
    e1.cancel()
    while (e := q.pop()) is not None:
        e.callback()
    assert fired == [2]


def test_pop_empty():
    assert EventQueue().pop() is None


def test_push_requeues_a_record_in_scheduling_order():
    """A process's one record, queued again: a fresh seq each time, so it
    fires behind what was scheduled at the same time before it."""
    q = EventQueue()
    record = q.push_call(1.0, len, ("ab",))
    assert q.pop() is record
    other = q.push_call(2.0, len, ())
    q.push(2.0, record)
    assert record.time == 2.0 and len(q) == 2
    assert q.pop() is other
    assert q.pop() is record
    assert q.pop() is None


def test_len_counts_entries():
    q = EventQueue()
    q.push_call(1.0, lambda: None, ())
    q.push_call(2.0, lambda: None, ())
    assert len(q) == 2


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
def test_property_pops_sorted(times):
    q = EventQueue()
    for t in times:
        q.push_call(t, lambda: None, ())
    popped = []
    while (e := q.pop()) is not None:
        popped.append(e.time)
    assert popped == sorted(popped)
    assert len(popped) == len(times)


@given(
    st.lists(
        st.tuples(st.sampled_from([0.0, 1.0, 2.0]), st.integers(0, 99)),
        min_size=1,
        max_size=100,
    )
)
def test_property_equal_times_fifo(items):
    q = EventQueue()
    out = []
    for t, tag in items:
        q.push_call(t, lambda t=t, tag=tag: out.append((t, tag)), ())
    while (e := q.pop()) is not None:
        e.callback()
    # Within each time bucket, tags appear in original scheduling order.
    for bucket_time in (0.0, 1.0, 2.0):
        expected = [tag for t, tag in items if t == bucket_time]
        actual = [tag for t, tag in out if t == bucket_time]
        assert actual == expected


# One step of a random interleaving.  Times come from a tiny set so
# equal timestamps and re-pushes at an already drained time are the
# common case, not the rare one; integers pick a victim among the events
# pushed so far (live, cancelled or already popped).
_TIMES = st.sampled_from([0.0, 1.0, 1.5, 2.0])
_OPS = st.one_of(
    st.tuples(st.just("push"), _TIMES),
    st.tuples(st.just("push_call"), _TIMES),
    st.tuples(st.just("cancel"), st.integers(0, 10**6)),
    st.tuples(st.just("pop"), st.none()),
    st.tuples(st.just("compact"), st.none()),
)


@given(st.lists(_OPS, max_size=120))
def test_property_queue_matches_sorted_list_model(ops):
    """Any interleaving agrees with a sorted list of live ``(time, seq)``."""
    q = EventQueue()
    model = []  # live (time, seq) keys, kept sorted
    events = []  # every event ever pushed, indexed by seq
    for op, arg in ops:
        if op in ("push", "push_call"):
            if op == "push":
                event = q.push_call(arg, len, ())
            else:
                event = q.push_call(arg, len, ("xy",))
                assert event.callback(*event.args) == 2
            assert (event.time, event.seq) == (arg, len(events))
            events.append(event)
            model.append((arg, event.seq))
            model.sort()
        elif op == "cancel":
            if events:
                victim = events[arg % len(events)]
                victim.cancel()  # no-op on popped / already cancelled
                key = (victim.time, victim.seq)
                if key in model:
                    model.remove(key)
        elif op == "pop":
            event = q.pop()
            if model:
                assert (event.time, event.seq) == model.pop(0)
            else:
                assert event is None
        else:
            q.compact()
        assert len(q) == len(model)
    drained = []
    while (event := q.pop()) is not None:
        assert not event.cancelled
        drained.append((event.time, event.seq))
    assert drained == model
