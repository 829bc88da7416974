"""Self-time arithmetic of the span recorder."""

import threading

import pytest

from spans import SpanRecorder, covered_length


def recorder_with(spans):
    """A recorder holding ``(name, start, end, parent)`` spans verbatim."""
    rec = SpanRecorder("test")
    rec.spans = [list(span) for span in spans]
    return rec


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([], 0.0, 10.0) == 0.0
    assert covered_length([(1.0, 3.0), (5.0, 6.0)], 0.0, 10.0) == 3.0
    # overlapping and nested children count once
    assert covered_length([(1.0, 4.0), (2.0, 3.0), (3.5, 6.0)], 0.0, 10.0) == 5.0
    # a child reaching outside its parent is clipped to it
    assert covered_length([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == 2.0


def test_self_time_with_nested_children():
    rec = recorder_with(
        [
            ("run", 0.0, 10.0, -1),
            ("iterate", 1.0, 4.0, 0),
            ("iterate", 6.0, 7.0, 0),
        ]
    )
    rec.leaves.append(("halo", 2.0, 3.0, 1))  # grandchild: only shrinks "iterate"
    self_times = rec.self_times()
    assert self_times["run"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert self_times["iterate"] == pytest.approx((3.0 - 1.0) + 1.0)
    assert self_times["halo"] == pytest.approx(1.0)
    # self times partition the root span
    assert sum(self_times.values()) == pytest.approx(10.0)


def test_self_time_with_overlapping_children():
    # two client threads under one parent: coverage is the union
    rec = recorder_with(
        [
            ("drain", 0.0, 10.0, -1),
            ("job", 1.0, 6.0, 0),
            ("job", 4.0, 9.0, 0),
        ]
    )
    assert rec.self_times()["drain"] == pytest.approx(2.0)
    assert rec.totals()["job"] == (2, pytest.approx(10.0))


def test_open_spans_are_ignored():
    rec = recorder_with([("run", 0.0, None, -1), ("iterate", 1.0, 2.0, 0)])
    assert rec.totals() == {"iterate": (1, 1.0)}
    assert rec.self_times() == {"iterate": 1.0}


def test_live_recording_nests_and_threads():
    rec = SpanRecorder("live")
    with rec.span("outer") as outer:
        assert rec.current() == outer
        with rec.span("inner"):
            rec.leaf("leaf", 0.0, 0.0)

        def worker():
            assert rec.current() == -1  # stacks are per thread
            with rec.span("threaded", parent=outer):
                pass

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
    parents = {name: parent for name, _, _, parent in rec.spans}
    assert parents == {"outer": -1, "inner": outer, "threaded": outer}
    assert rec.leaves == [("leaf", 0.0, 0.0, 1)]
    assert all(end is not None for _, _, end, _ in rec.spans)


def test_write_round_trips(tmp_path):
    import json

    rec = recorder_with([("run", 5.0, 7.0, -1), ("open", 6.5, None, 0)])
    rec.leaf("iterate", 5.5, 6.0)
    path = tmp_path / "trace.json"
    rec.write(str(path))
    data = json.loads(path.read_text())
    assert data["run_id"] == "test"
    assert data["spans"] == [["run", 0.0, 2.0, -1], ["open", 1.5, None, 0]]
    assert data["leaves"] == [["iterate", 0.5, 1.0, -1]]
