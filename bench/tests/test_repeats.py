"""The repeat loop of a timed child and the host-speed correction."""

import statistics
import time

import pytest

import calibration
import run


class FakeWorkload:
    """A body that burns a fixed time and reports scripted digests."""

    name = "fake"
    strict_warnings = True

    def __init__(self, digests=None, fail_at=None):
        self.digests = digests
        self.fail_at = fail_at
        self.events = []

    def n_operations(self):
        return 2

    def begin_rep(self):
        self.events.append("begin")

    def body(self):
        self.events.append("body")
        time.sleep(0.01)
        repeat = self.events.count("body")
        if repeat == self.fail_at:
            raise RuntimeError("boom")
        return repeat

    def end_rep(self):
        self.events.append("end")

    def outcome(self, repeat):
        digest = self.digests[repeat - 1] if self.digests else "same"
        return {
            "attempted": 2, "failures": [], "virtual_time_s": 1.5, "lb_ratio": 2.0,
            "digest": digest, "counts": {"core.migrations": 7},
        }


@pytest.fixture(autouse=True)
def fast_calibration(monkeypatch):
    monkeypatch.setattr(calibration, "calibrate", lambda: 0.5)


def test_no_window_means_one_repeat():
    out = run._run_timed(FakeWorkload(), 0.0, 0.5)
    assert len(out["wall_samples"]) == 1
    assert (out["attempted"], out["failures"]) == (2, [])


def test_repeats_fill_the_window_and_report_the_median():
    workload = FakeWorkload()
    t0 = time.monotonic()
    out = run._run_timed(workload, 0.2, 0.5)
    assert time.monotonic() - t0 < 0.3
    repeats = len(out["wall_samples"])
    assert repeats >= 5
    assert workload.events == ["begin", "body", "end"] * repeats
    assert out["attempted"] == 2 * repeats
    assert out["wall_s"] == statistics.median(out["wall_samples"])
    assert out["wall_raw_s"] == statistics.median(out["wall_raw_samples"])
    # calibrate() reads twice REFERENCE_S: the host is half as fast as
    # the reference, so every corrected time is half the measured one.
    assert out["wall_samples"] == [raw / 2 for raw in out["wall_raw_samples"]]


def test_a_repeat_that_disagrees_with_the_first_is_a_failure():
    out = run._run_timed(FakeWorkload(digests=["a", "a", "b"] + ["a"] * 99), 0.2, 0.5)
    assert any("digest differs between repeats" in f for f in out["failures"])


def test_a_dead_body_fails_its_operations_and_ends_the_run():
    workload = FakeWorkload(fail_at=2)
    out = run._run_timed(workload, 10.0, 0.5)
    assert len(out["wall_samples"]) == 2
    assert out["attempted"] == 4
    assert out["failures"] == ["RuntimeError: boom"] * 2
    assert workload.events[-1] == "end"


def test_a_repeat_is_corrected_by_the_calibrations_around_it(monkeypatch):
    ref = calibration.REFERENCE_S
    readings = iter([2 * ref, 4 * ref, ref] + [ref] * 99)
    monkeypatch.setattr(calibration, "calibrate", lambda: next(readings))
    out = run._run_timed(FakeWorkload(), 0.025, ref)
    raw = out["wall_raw_samples"]
    assert len(raw) >= 2
    # calibrations: ref (handed in), 2 ref, 4 ref, ref, ...
    assert out["wall_samples"][0] == pytest.approx(raw[0] / ((1 + 2 + 4) / 3))
    assert out["wall_samples"][1] == pytest.approx(raw[1] / statistics.fmean(
        [1, 2, 4, 1][: len(raw) + 1]
    ))


def test_corrected_scales_by_the_mean_calibration():
    ref = calibration.REFERENCE_S
    assert calibration.corrected(3.0, [ref]) == pytest.approx(3.0)
    assert calibration.corrected(3.0, [ref, 3 * ref]) == pytest.approx(1.5)


def test_the_calibration_work_is_fixed(monkeypatch):
    monkeypatch.undo()
    assert 0.01 < calibration.calibrate() < 10.0
