"""End-to-end tests for the integrity experiment sweep."""

import copy
import json

import pytest

from repro.analysis.perf import save_report, stable_digest
from repro.experiments.integrity import IntegrityResult, _classify, run_integrity
from repro.workloads import IntegrityScenario

#: Fingerprint of the quick sweep's zero-corruption rows, both arms.
#: Those rows take the code path of every ordinary (non-integrity) run,
#: so a behaviour drift on the clean path fails here even where a full
#: digest is regenerated.
QUICK_CLEAN_DIGEST = (
    "6763ff5e5e46f66e7308b6656c5ad544fdc3f1ea1074422447a129b9ccdf8e21"
)


@pytest.fixture(scope="module")
def tiny_result(spied_sweep):
    return spied_sweep("integrity-tiny")[0]


def test_sweep_covers_every_grid_cell(tiny_result):
    scenario = IntegrityScenario.tiny()
    seen = [(r["arm"], r["schedule"], r["model"]) for r in tiny_result.rows]
    assert seen == scenario.grid()


def test_detect_arm_recovers_from_payload_corruption(tiny_result):
    scenario = IntegrityScenario.tiny()
    for model in scenario.models:
        row = tiny_result.row("detect", "flip_hi", model)
        assert row is not None
        assert row["outcome"] == "recovered"
        assert row["converged"]
        assert row["max_error"] < scenario.error_tol
        # Recall 1.0 on the wire: every corrupted delivery fails its
        # checksum and is refetched.
        assert row["corruptions_injected"] > 0
        assert row["corruptions_detected"] == row["corruptions_injected"]
        # Every rejection is healed by the RTO path (a retransmission
        # can itself be re-corrupted, so retries slightly undercounts
        # detections — but the retransmit machinery must have run).
        assert row["retries"] > 0


def test_blind_arm_fails_loudly_never_silently(tiny_result):
    # Unchecked bit-flipped halos either crash a handler contract
    # (aiac+lb: corrupted migration payloads) or keep the residual from
    # ever settling (aiac).  Neither run converges wrong.
    crashed = tiny_result.row("blind", "flip_hi", "aiac+lb")
    assert crashed["outcome"] == "crashed"
    assert crashed["time"] is None
    assert not crashed["converged"]
    assert crashed["crash"]  # the original exception's type name
    assert crashed["corruptions_detected"] == 0

    stalled = tiny_result.row("blind", "flip_hi", "aiac")
    assert stalled["outcome"] == "stalled"
    assert not stalled["converged"]
    assert stalled["corruptions_detected"] == 0


def test_gate_quantities(tiny_result):
    assert tiny_result.gate_failures() == []
    for row in tiny_result.rows:
        if row["schedule"] == "none":
            assert row["outcome"] == "clean"
            assert row["corruptions_injected"] == 0


def test_sweep_is_deterministic(tiny_result):
    again = run_integrity(IntegrityScenario.tiny())
    assert again.digest() == tiny_result.digest()
    assert again.rows == tiny_result.rows


def test_pinned_detect_arm_rows_and_counters(tiny_result):
    # The detect arm is the protected path end to end (acks, retries,
    # checksums, checkpoint CRCs, the guard): its rows, every injector
    # counter and the guard's event / check counts, by digest.
    from repro.faults import FaultInjector
    from repro.guard import InvariantMonitor
    from repro.models import run_model

    scenario = IntegrityScenario.tiny()
    rows = [row for row in tiny_result.rows if row["arm"] == "detect"]
    assert stable_digest(rows) == (
        "9ec890352338cd13ee3dc7e599b34046742bce81891dc87c828a7492173faae5"
    )
    injected, guarded = [], []
    for arm, schedule, model in scenario.grid():
        if arm != "detect":
            continue
        injector = FaultInjector(scenario.schedule(schedule, detect=True))
        guard = InvariantMonitor(scenario.guard_config())
        run_model(model, scenario, injector=injector, guard=guard)
        injected.append(dict(injector.stats))
        guarded.append(guard.stats())
    assert injected[2]["corruptions_detected"] == 471
    assert injected[2]["retries"] == 467 and injected[2]["acks_dropped"] == 236
    assert stable_digest(injected) == (
        "09a73deaca10966b716aca44bda3dfb80c8fd7d6d3c162549e663011187066f1"
    )
    assert [g["events_seen"] for g in guarded] == [7000, 6051, 8068, 7268]
    assert [g["checks_run"] for g in guarded] == [109, 94, 126, 113]
    assert stable_digest(guarded) == (
        "716b0c442e581e89b5396adeda3510ffd745699cdb2a7d9f8085ab35eedfefcd"
    )


def test_report_carries_digest_and_gate_line(tiny_result):
    report = tiny_result.report()
    assert tiny_result.digest() in report
    assert "zero wrong answers with detection armed" in report
    assert "GATE VIOLATION" not in report


def test_save_json_round_trip(tiny_result, tmp_path):
    path = tmp_path / "bench.json"
    save_report(str(path), tiny_result.to_dict())
    data = json.loads(path.read_text())
    assert data["digest"] == tiny_result.digest()
    assert data["rows"] == tiny_result.rows
    # The stored digest re-derives from the stored rows alone.
    assert stable_digest({"rows": data["rows"]}) == data["digest"]


def test_unknown_schedule_name_is_rejected():
    with pytest.raises(ValueError, match="nope"):
        IntegrityScenario().schedule("nope", detect=True)


def test_truncate_is_detect_only():
    grid = IntegrityScenario().grid()
    assert ("detect", "truncate", "aiac") in grid
    assert all(
        schedule != "truncate" for arm, schedule, _ in grid if arm == "blind"
    )


def test_classify_taxonomy():
    tol = 1e-3
    assert _classify(True, 1e-9, 0, 0, tol) == "clean"
    assert _classify(True, 1e-9, 5, 5, tol) == "recovered"
    assert _classify(True, 1e-9, 5, 0, tol) == "masked"
    assert _classify(False, 1.0, 5, 5, tol) == "stalled"
    # The one unacceptable outcome: converged, but to the wrong answer.
    assert _classify(True, 1.0, 5, 5, tol) == "WRONG"
    assert _classify(True, 1.0, 5, 0, tol) == "WRONG"


def test_quick_grid_passes_the_gate_with_its_clean_rows_pinned(
    tmp_path, capsys
):
    from repro.cli import main

    path = tmp_path / "quick.json"
    assert main(["integrity", "--check", "--no-cache", "--json", str(path)]) == 0
    assert "integrity gate passed" in capsys.readouterr().out
    rows = json.loads(path.read_text())["rows"]
    clean = [row for row in rows if row["schedule"] == "none"]
    assert len(clean) == 8
    assert stable_digest({"rows": clean}) == QUICK_CLEAN_DIGEST


def test_tiny_grid_passes_the_gate_on_the_cli(tiny_result, run_check, capsys):
    assert run_check("integrity", tiny_result) == 0
    assert "integrity gate passed" in capsys.readouterr().out


def _doctor(result, arm, schedule, model, **fields):
    rows = copy.deepcopy(result.rows)
    for row in rows:
        if (row["arm"], row["schedule"], row["model"]) == (arm, schedule, model):
            row.update(fields)
    return IntegrityResult(scenario=result.scenario, rows=rows)


#: One doctored row per gate clause, and the name the failure gives it.
BROKEN_CLAUSES = [
    (
        ("detect", "flip_hi", "aiac", {"outcome": "WRONG", "max_error": 0.5}),
        "wrong answer with detection armed: detect/flip_hi/aiac",
    ),
    (
        ("blind", "none", "aiac+lb", {"iterations": 1}),
        "clean path not inert: aiac+lb differs between the arms",
    ),
    (
        ("detect", "flip_hi", "aiac+lb", {"corruptions_detected": 1}),
        "payload recall below 1.0: detect/flip_hi/aiac+lb",
    ),
    (
        (
            "detect", "flip_hi", "aiac",
            {"corruptions_injected": 0, "corruptions_detected": 0},
        ),
        "payload window never fired: detect/flip_hi/aiac",
    ),
]


@pytest.mark.parametrize("doctored, clause", BROKEN_CLAUSES)
def test_each_broken_clause_fails_the_check_by_name(
    tiny_result, run_check, doctored, clause
):
    arm, schedule, model, fields = doctored
    broken = _doctor(tiny_result, arm, schedule, model, **fields)
    (failure,) = broken.gate_failures()  # this clause alone breaks
    with pytest.raises(SystemExit) as exc:
        run_check("integrity", broken)
    message = exc.value.code
    assert isinstance(message, str)  # printed, exit status 1
    assert message.startswith("integrity gate failed:")
    assert clause in failure and failure in message
