"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "figure5" in out
    assert "table1" in out
    assert "ablations" in out


def test_list_prints_every_subcommand_with_its_help_line(capsys):
    import argparse

    parser = build_parser()
    (verbs,) = (
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert main(["list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == list(verbs.choices)
    usage = " ".join(parser.format_help().split())
    for name, line in zip(verbs.choices, lines):
        text = line[len(name):].strip()
        assert text, name
        assert f"{name} {text}" in usage, name


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["warp-drive"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_full_flag_only_on_scalable_commands():
    parser = build_parser()
    args = parser.parse_args(["figure5", "--full"])
    assert args.full
    with pytest.raises(SystemExit):
        parser.parse_args(["models", "--full"])


def test_scale_flag_selects_1024_rank_preset():
    parser = build_parser()
    args = parser.parse_args(["figure5", "--scale"])
    assert args.scale
    with pytest.raises(SystemExit):
        parser.parse_args(["models", "--scale"])


def test_figure5_problem_flag_parses():
    parser = build_parser()
    args = parser.parse_args(["figure5", "--problem", "brusselator"])
    assert args.problem == "brusselator"
    assert parser.parse_args(["figure5"]).problem == "synthetic"
    with pytest.raises(SystemExit):
        parser.parse_args(["figure5", "--problem", "nope"])


def test_ablations_unknown_key_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["ablations", "--only", "nonsense"])


def test_figures_command_runs_end_to_end(capsys):
    assert main(["figures-1-4"]) == 0
    out = capsys.readouterr().out
    assert "Figure 1" in out
    assert "idle fraction" in out
    assert "completed in" in out


def test_models_command_runs_end_to_end(capsys):
    assert main(["models"]) == 0
    out = capsys.readouterr().out
    assert "cluster" in out and "grid" in out


def test_solve_command_heat_with_lb(capsys, tmp_path):
    json_path = tmp_path / "run.json"
    assert (
        main(
            [
                "solve",
                "--problem", "heat",
                "--size", "32",
                "--ranks", "3",
                "--slow-factor", "4",
                "--lb",
                "--json", str(json_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "converged" in out
    assert "max error vs sequential reference" in out
    assert "final blocks" in out
    assert json_path.exists()


def test_solve_command_synthetic_sisc(capsys):
    assert (
        main(
            [
                "solve",
                "--problem", "synthetic",
                "--size", "48",
                "--ranks", "4",
                "--model", "sisc",
                "--tolerance", "1e-8",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "sisc: converged" in out
    assert "max residual error" in out


def test_solve_command_gantt(capsys):
    assert (
        main(["solve", "--problem", "synthetic", "--size", "32", "--ranks", "2",
              "--gantt"])
        == 0
    )
    out = capsys.readouterr().out
    assert "█" in out


@pytest.mark.parametrize("model", ["sisc", "siac"])
def test_solve_rejects_lb_on_a_synchronous_model(capsys, model):
    # It used to run aiac+lb and report that as if it had been asked for.
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--problem", "heat", "--size", "16", "--ranks", "2",
              "--model", model, "--lb"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"repro solve: --lb balances the aiac model only, not --model {model}\n"
    )


def test_solve_rejects_unknown_problem():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["solve", "--problem", "navier-stokes"])


# ----------------------------------------------------------------------
# Serve verbs
# ----------------------------------------------------------------------
def test_list_mentions_serve_verbs(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for verb in ("serve", "submit", "jobs", "result", "health", "audit-replay"):
        assert verb in out


def test_serve_verbs_parse():
    parser = build_parser()
    args = parser.parse_args(
        ["serve", "--state-dir", "st", "--workers", "3", "--job-timeout", "5",
         "--cache-max-mb", "10", "--no-fsync"]
    )
    assert args.state_dir == "st" and args.workers == 3
    assert args.cache_max_mb == 10.0 and args.no_fsync

    args = parser.parse_args(
        ["submit", "--kind", "soak", "--schedules", "3", "--seed", "7",
         "--tenant", "alice", "--priority", "2", "--wait"]
    )
    assert args.kind == "soak" and args.schedules == 3 and args.wait

    args = parser.parse_args(["result", "j000001", "--follow"])
    assert args.job_id == "j000001" and args.follow

    with pytest.raises(SystemExit):
        parser.parse_args(["submit", "--kind", "warp-drive"])
    with pytest.raises(SystemExit):
        parser.parse_args(["submit"])  # --kind is required


@pytest.mark.parametrize(
    "verb",
    [
        ["health"],
        ["jobs"],
        ["result", "j000001"],
        ["submit", "--kind", "sleep"],
    ],
    ids=lambda verb: verb[0],
)
def test_client_verbs_without_a_daemon_fail_in_one_line(
    verb, capsys, tmp_path, monkeypatch
):
    from repro.serve import ServeClient

    # The CLI's client with the dial's retries (and their backoff
    # sleeps) off; CI drives ``repro health`` with the defaults.
    monkeypatch.setattr(
        "repro.cli._serve_client",
        lambda args: ServeClient(args.socket, connect_retries=0),
    )
    address = str(tmp_path / "nobody-listens.sock")
    with pytest.raises(SystemExit) as excinfo:
        main([*verb, "--socket", address])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"repro {verb[0]}: cannot connect to daemon at {address!r} "
        f"after 1 attempt(s): [Errno 2] No such file or directory\n"
    )


def test_engine_flags_accept_cache_cap():
    args = build_parser().parse_args(["figure5", "--cache-max-mb", "64"])
    assert args.cache_max_mb == 64.0

    from repro.cli import _engine_for

    engine = _engine_for(args)
    assert engine.cache.max_bytes == 64_000_000


def test_audit_replay_command_offline(capsys, tmp_path):
    from repro.serve import AuditLog, config_digest, execute_spec

    spec = {"kind": "sleep", "seconds": 0.0, "tasks": 1}
    log = AuditLog(str(tmp_path / "audit.jsonl"), durable=False)
    log.append(
        job_id="j000001",
        tenant="t",
        spec=spec,
        config_digest=config_digest(spec),
        result_digest=execute_spec(spec)["digest"],
        state="done",
    )
    log.close()
    assert main(["audit-replay", "--state-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "0 mismatch(es)" in out


def test_audit_replay_command_flags_mismatch(capsys, tmp_path):
    from repro.serve import AuditLog, config_digest

    spec = {"kind": "sleep", "seconds": 0.0, "tasks": 1}
    log = AuditLog(str(tmp_path / "audit.jsonl"), durable=False)
    log.append(
        job_id="j000001",
        tenant="t",
        spec=spec,
        config_digest=config_digest(spec),
        result_digest="0" * 64,  # a served digest that cannot reproduce
        state="done",
    )
    log.close()
    with pytest.raises(SystemExit, match="audit-replay failed"):
        main(["audit-replay", "--audit", str(tmp_path / "audit.jsonl")])


class _StubResult:
    """A sweep result whose gate fails and whose soak did not hold."""

    ok = False
    failures = ("stub",)

    def report(self):
        return "stub report"

    def gate_failures(self):
        return ["stub gate"]


@pytest.mark.parametrize(
    ("argv", "target", "raises"),
    [
        (["integrity", "--tiny", "--check"],
         "repro.experiments.integrity.run_integrity", True),
        (["ablations", "--only", "threshold"],
         "repro.experiments.ablations.sweep_threshold_ratio", False),
        (["soak", "--schedules", "1"], "repro.guard.soak.run_soak", True),
    ],
    ids=["experiment", "ablations", "soak"],
)
def test_every_engine_backed_handler_closes_its_engine(
    argv, target, raises, monkeypatch, capsys
):
    """``_experiment``, ``_ablations`` and ``_soak`` close the sweep engine
    they build, also when a failed ``--check`` or soak exits through
    ``SystemExit``: an engine left open keeps a ``--jobs N`` worker pool
    running after the verb returns (a ``ResourceWarning`` in process)."""
    import repro.cli as cli
    from repro.exec import SweepEngine

    monkeypatch.setattr(target, lambda *args, **kwargs: _StubResult())
    built, closed = [], []
    engine_for = cli._engine_for
    close = SweepEngine.close

    def spy_engine_for(args):
        built.append(engine_for(args))
        return built[-1]

    def spy_close(engine):
        closed.append(engine)
        close(engine)

    monkeypatch.setattr(cli, "_engine_for", spy_engine_for)
    monkeypatch.setattr(SweepEngine, "close", spy_close)
    if raises:
        with pytest.raises(SystemExit):
            main([*argv, "--no-cache"])
    else:
        assert main([*argv, "--no-cache"]) == 0
    assert len(built) == 1 and closed == built
    assert "stub report" in capsys.readouterr().out
