"""Turning child records into result rows, and rows into verdicts.

No ``repro`` or numpy import here: this module is what the parent
process of ``run.py`` loads, and ``--compare`` must work on two JSON
files alone.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from typing import Any

__all__ = [
    "compare_files",
    "compare_rows",
    "format_row",
    "load_spec",
    "provenance",
    "summarise",
    "validate_spec",
]

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
_PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")
#: Units of the per-layer metrics that must repeat exactly.
EXACT_UNITS = ("count", "ratio", "abs")
_SPEC_KEYS = {
    "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
}


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def validate_spec(spec: Any) -> list[str]:
    """Every way ``spec`` breaks the ``BENCHMARK.json`` contract."""
    if not isinstance(spec, dict):
        return ["top level is not an object"]
    errors = []
    if set(spec) != _SPEC_KEYS:
        errors.append(f"keys {sorted(spec)} != {sorted(_SPEC_KEYS)}")
        return errors
    command = spec["command"]
    if not (
        isinstance(command, list)
        and 1 <= len(command) <= 32
        and all(isinstance(c, str) and len(c) <= 200 for c in command)
    ):
        errors.append("command must be 1-32 strings of at most 200 characters")
    elif any(c.startswith("/") or ".." in c.split("/") for c in command):
        errors.append("command may not name an absolute path or leave the repo")
    paths = spec["paths"]
    if not (
        isinstance(paths, list)
        and 1 <= len(paths) <= 16
        and all(isinstance(p, str) and _PATH.match(p) for p in paths)
    ):
        errors.append("paths must be 1-16 relative directory names")
    seconds = spec["run_seconds"]
    if not (isinstance(seconds, int) and not isinstance(seconds, bool) and 1 <= seconds <= 60):
        errors.append("run_seconds must be a whole number from 1 to 60")
    names: list[str] = []

    def check_list(key: str, lo: int, hi: int, fields: set[str]) -> list[dict]:
        items = spec[key]
        if not (isinstance(items, list) and lo <= len(items) <= hi):
            errors.append(f"{key} must list {lo} to {hi} entries")
            return []
        good = []
        for item in items:
            if not (isinstance(item, dict) and set(item) == fields):
                errors.append(f"{key} entry {item!r} must have exactly {sorted(fields)}")
                continue
            if not (isinstance(item["name"], str) and _NAME.match(item["name"])):
                errors.append(f"{key} name {item['name']!r} is not a valid name")
            names.append(item["name"])
            good.append(item)
        return good

    for workload in check_list("workloads", 2, 8, {"name", "why"}):
        why = workload["why"]
        if not (isinstance(why, str) and len(why) <= 200 and "\n" not in why):
            errors.append(f"workload {workload['name']!r}: why must be one line <= 200 chars")
    end_to_end = check_list("end_to_end", 1, 16, {"name", "unit", "better", "bound"})
    per_layer = check_list("per_layer", 1, 128, {"name", "unit", "better"})
    for metric in end_to_end + per_layer:
        if not (isinstance(metric["unit"], str) and _UNIT.match(metric["unit"])):
            errors.append(f"metric {metric['name']!r}: bad unit {metric['unit']!r}")
        if metric["better"] not in ("lower", "higher"):
            errors.append(f"metric {metric['name']!r}: better must be lower or higher")
    for metric in end_to_end:
        bound = metric["bound"]
        if not (isinstance(bound, (int, float)) and not isinstance(bound, bool) and 0 <= bound <= 0.25):
            errors.append(f"metric {metric['name']!r}: bound must be in [0, 0.25]")
    setup = [m for m in end_to_end if m["name"] == "setup_s"]
    if not (setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"):
        errors.append("end_to_end must include setup_s (unit s, better lower)")
    repeated = {n for n in names if names.count(n) > 1}
    if repeated:
        errors.append(f"names used more than once: {sorted(repeated)}")
    return errors


def load_spec(root: str) -> dict:
    """``BENCHMARK.json`` from ``root``, validated."""
    path = os.path.join(root, "BENCHMARK.json")
    if os.path.getsize(path) > 64 * 1024:
        raise RuntimeError(f"{path} is larger than 64 KiB")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    errors = validate_spec(spec)
    if errors:
        raise RuntimeError(f"{path} breaks the contract: " + "; ".join(errors))
    return spec


# ----------------------------------------------------------------------
# Rows
# ----------------------------------------------------------------------
def _timing(samples: list[float]) -> dict[str, Any]:
    """Median with min/max and the sample count (quartiles from n = 5)."""
    out: dict[str, Any] = {
        "value": statistics.median(samples),
        "n": len(samples),
        "min": min(samples),
        "max": max(samples),
        "samples": samples,
    }
    if len(samples) >= 5:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        out["q1"], out["q3"] = q1, q3
    return out


def _determinism_breaks(runs: list[dict]) -> list[str]:
    """What differs between runs that must be bit-identical."""
    first = runs[0]
    breaks = []
    for other in runs[1:]:
        label = f"{first['mode']} run vs {other['mode']} run"
        for key in ("digest", "virtual_time_s", "lb_ratio"):
            if first.get(key) != other.get(key):
                breaks.append(f"{key} differs ({label}): {first.get(key)!r} != {other.get(key)!r}")
        a, b = first.get("counts", {}), other.get("counts", {})
        for key in sorted(set(a) & set(b)):
            if a[key] != b[key]:
                breaks.append(f"count {key} differs ({label}): {a[key]!r} != {b[key]!r}")
    return breaks


def summarise(
    workload: str,
    timed: list[dict],
    setup_only: list[dict],
    traced: dict | None,
    spec: dict,
) -> dict:
    """One result row from one workload's child records."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    runs = timed + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    breaks = _determinism_breaks(runs)
    failed = len(failures)
    if breaks:
        # Runs that disagree cannot all be right, and nothing says which
        # is: every operation of the workload counts as failed.
        failures += breaks
        failed = attempted
    first = timed[0]
    end_to_end = {
        "wall_s": _timing([r["wall_s"] for r in timed]),
        "setup_s": _timing([r["setup_s"] for r in runs + setup_only]),
        "peak_rss_mb": _timing([r["peak_rss_mb"] for r in timed]),
    }
    # wall_s of a timed child is already the median of its repeats; the
    # times as the clock read them, before the correction for the host's
    # speed (calibration.py), stay in the row next to it.
    end_to_end["wall_s"]["repeat_samples"] = [
        r.get("wall_samples", [r["wall_s"]]) for r in timed
    ]
    end_to_end["wall_s"]["raw_repeat_samples"] = [
        r.get("wall_raw_samples", [r["wall_s"]]) for r in timed
    ]
    end_to_end["setup_s"]["raw_samples"] = [
        r.get("setup_raw_s", r["setup_s"]) for r in runs + setup_only
    ]
    for key in ("virtual_time_s", "lb_ratio"):
        if key in first:
            end_to_end[key] = {"value": first[key], "n": len(runs)}
    for name, entry in end_to_end.items():
        entry["unit"] = units.get(name, "")
    row: dict[str, Any] = {
        "workload": workload,
        "seed_used": first.get("seed_used"),
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted,
        "failures": failures,
        "digest": first.get("digest"),
        "counts": first.get("counts", {}),
        "end_to_end": end_to_end,
        "per_layer": {},
    }
    if traced is not None and "layers" in traced:
        layers = dict(traced["layers"])
        layers["setup.import_s"] = traced["setup.import_s"]
        layers["workloads.build_s"] = traced["workloads.build_s"]
        layers["trace_overhead"] = traced["wall_s"] / end_to_end["wall_s"]["value"]
        row["per_layer"] = {
            name: {"value": value, "unit": units.get(name, "")}
            for name, value in sorted(layers.items())
        }
    return row


def format_row(row: dict, spec: dict) -> str:
    """Every metric of one row by name, with its unit."""
    lines = []
    for metric in spec["end_to_end"]:
        entry = row["end_to_end"].get(metric["name"])
        if entry is None:
            continue
        text = f"  {metric['name']:<32} {entry['value']:.6g} {metric['unit']}"
        if "min" in entry:
            text += f"   (n={entry['n']}, min {entry['min']:.6g}, max {entry['max']:.6g})"
        lines.append(text)
    lines.append(
        f"  {'fail_share':<32} {row['fail_share']:.6g} "
        f"({row['failed']} failed / {row['attempted']} attempted)"
    )
    lines.extend(f"  FAILED: {failure}" for failure in row["failures"])
    for metric in spec["per_layer"]:
        entry = row["per_layer"].get(metric["name"])
        if entry is not None:
            lines.append(f"  {metric['name']:<32} {entry['value']:.6g} {metric['unit']}")
    return "\n".join(lines)


def provenance(root: str, seed: int, repeats: int) -> dict[str, Any]:
    """Where, when and on what a ledger was measured."""
    from importlib import metadata

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        sha = git("rev-parse", "HEAD")
        if git("status", "--porcelain"):
            sha += "+uncommitted"
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "seed": seed,
        "repeats": repeats,
    }


# ----------------------------------------------------------------------
# Compare
# ----------------------------------------------------------------------
def _spread(entry: dict) -> float:
    """Run-to-run spread as a share of the median: the interquartile
    distance when there are quartiles, else the full range."""
    if "q1" in entry:
        return (entry["q3"] - entry["q1"]) / entry["value"]
    if "min" in entry:
        return (entry["max"] - entry["min"]) / entry["value"]
    return 0.0


def compare_rows(a: dict, b: dict, spec: dict) -> list[dict]:
    """Verdict per end-to-end metric for one workload, ``b`` against ``a``."""
    out = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        ea, eb = a["end_to_end"].get(name), b["end_to_end"].get(name)
        if ea is None or eb is None:
            continue
        base, new = ea["value"], eb["value"]
        worse = (new - base) / base if metric["better"] == "lower" else (base - new) / base
        overlap = ea.get("min", base) <= eb.get("max", new) and eb.get("min", new) <= ea.get("max", base)
        if max(_spread(ea), _spread(eb)) > metric["bound"] and overlap:
            verdict = "unresolved"
        elif worse > metric["bound"]:
            verdict = "regressed"
        else:
            verdict = "ok"
        out.append(
            {
                "workload": a["workload"], "metric": name, "unit": metric["unit"],
                "base": base, "new": new, "ratio": new / base,
                "bound": metric["bound"], "verdict": verdict,
            }
        )
    return out


def compare_files(path_a: str, path_b: str, spec: dict) -> int:
    """Print ``B`` against ``A``; non-zero on a regression or more failures."""
    with open(path_a, encoding="utf-8") as fh:
        rows_a = {row["workload"]: row for row in json.load(fh)["rows"]}
    with open(path_b, encoding="utf-8") as fh:
        rows_b = {row["workload"]: row for row in json.load(fh)["rows"]}
    status = 0
    for workload in spec["workloads"]:
        a, b = rows_a.get(workload["name"]), rows_b.get(workload["name"])
        if a is None or b is None:
            print(f"{workload['name']}: missing from one ledger")
            status = 1
            continue
        for v in compare_rows(a, b, spec):
            print(
                f"{v['workload']:<16} {v['metric']:<16} {v['verdict']:<10} "
                f"B/A = {v['ratio']:.4f}  (A = {v['base']:.6g} {v['unit']}, "
                f"B = {v['new']:.6g} {v['unit']}, bound {v['bound']:.0%})"
            )
            status |= v["verdict"] == "regressed"
        if b["fail_share"] > a["fail_share"]:
            print(
                f"{workload['name']:<16} fail_share       regressed  "
                f"{a['failed']}/{a['attempted']} -> {b['failed']}/{b['attempted']}"
            )
            status = 1
        same = a["digest"] == b["digest"] and a["counts"] == b["counts"] and all(
            a["per_layer"].get(m["name"], {}).get("value")
            == b["per_layer"].get(m["name"], {}).get("value")
            for m in spec["per_layer"]
            if m["unit"] in EXACT_UNITS
        )
        print(
            f"{workload['name']:<16} digest and exact counts: "
            + ("identical" if same else "DIFFER")
        )
    return status
