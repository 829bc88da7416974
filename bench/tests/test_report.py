"""Row building, the determinism cross-check and ``--compare`` verdicts."""

import json

import pytest

import report

SPEC = {
    "workloads": [{"name": "w", "why": "x"}],
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.10},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.10},
        {"name": "virtual_time_s", "unit": "sim_s", "better": "lower", "bound": 0.01},
        {"name": "lb_ratio", "unit": "x", "better": "higher", "bound": 0.01},
    ],
    "per_layer": [
        {"name": "des.events", "unit": "count", "better": "lower"},
        {"name": "trace_overhead", "unit": "x", "better": "lower"},
    ],
}


def child(mode="timed", wall=10.0, **over):
    record = {
        "workload": "w", "mode": mode, "setup_s": 0.5, "setup.import_s": 0.4,
        "workloads.build_s": 0.1, "wall_s": wall, "peak_rss_mb": 60.0,
        "attempted": 2, "failures": [], "virtual_time_s": 1424.5,
        "lb_ratio": 1.786, "digest": "abc", "counts": {"core.migrations": 771},
    }
    record.update(over)
    return record


def row(walls, **over):
    return report.summarise("w", [child(wall=w, **over) for w in walls], [], None, SPEC)


def test_summarise_medians_and_counts():
    traced = child("traced", wall=11.0, layers={"des.events": 5})
    setups = [{"setup_s": s} for s in (0.1, 0.2, 0.9)]
    out = report.summarise(
        "w", [child(wall=w) for w in (10.0, 12.0, 9.0)], setups, traced, SPEC
    )
    assert out["end_to_end"]["wall_s"]["value"] == 10.0
    assert out["end_to_end"]["wall_s"]["n"] == 3
    assert out["end_to_end"]["setup_s"]["n"] == 7
    assert out["end_to_end"]["lb_ratio"] == {"value": 1.786, "n": 4, "unit": "x"}
    assert (out["attempted"], out["failed"], out["fail_share"]) == (8, 0, 0.0)
    assert out["per_layer"]["trace_overhead"]["value"] == pytest.approx(1.1)
    assert out["per_layer"]["des.events"] == {"value": 5, "unit": "count"}


@pytest.mark.parametrize(
    "over", [{"digest": "xyz"}, {"lb_ratio": 1.7}, {"counts": {"core.migrations": 1}}]
)
def test_a_determinism_break_fails_every_operation(over):
    out = report.summarise("w", [child(), child(**over)], [], None, SPEC)
    assert out["failed"] == out["attempted"] == 4
    assert any("differs" in failure for failure in out["failures"])


def test_failures_are_counted_per_operation():
    out = report.summarise(
        "w", [child(failures=["p4/balanced did not converge"])], [], None, SPEC
    )
    assert (out["failed"], out["fail_share"]) == (1, 0.5)


def verdicts(a, b):
    return {v["metric"]: v["verdict"] for v in report.compare_rows(a, b, SPEC)}


def test_compare_ok_regressed_unresolved():
    base = row([10.0, 10.1, 9.9])
    assert verdicts(base, row([10.2, 10.3, 10.1]))["wall_s"] == "ok"
    assert verdicts(base, row([12.0, 12.1, 11.9]))["wall_s"] == "regressed"
    # spread wider than the 10 % bound and the ranges overlap
    assert verdicts(base, row([9.5, 11.8, 13.0]))["wall_s"] == "unresolved"
    # just as noisy, but every run is worse than every base run
    assert verdicts(base, row([11.5, 12.5, 14.0]))["wall_s"] == "regressed"
    # an exact metric: any drift beyond its 1 % bound regresses
    assert verdicts(base, row([10.0], lb_ratio=1.70))["lb_ratio"] == "regressed"
    assert verdicts(base, row([10.0], lb_ratio=1.90))["lb_ratio"] == "ok"


def test_compare_files_exit_status(tmp_path, capsys):
    def ledger(name, rows):
        path = tmp_path / name
        path.write_text(json.dumps({"rows": rows}))
        return str(path)

    base = ledger("a.json", [row([10.0, 10.1, 9.9])])
    assert report.compare_files(base, ledger("b.json", [row([10.0, 10.2, 9.8])]), SPEC) == 0
    assert "B/A = " in capsys.readouterr().out
    assert report.compare_files(base, ledger("c.json", [row([12.0, 12.1, 11.9])]), SPEC) == 1
    failing = row([10.0], failures=["boom"])
    assert report.compare_files(base, ledger("d.json", [failing]), SPEC) == 1
    assert "fail_share" in capsys.readouterr().out
