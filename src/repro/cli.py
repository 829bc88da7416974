"""Command-line interface: run any experiment (or a custom solve).

Usage::

    python -m repro figure5 [--full|--scale] [--problem synthetic|brusselator]
                            [--jobs N] [--no-cache] [--json OUT]
    python -m repro table1 [--full] [--jobs N] [--no-cache]
    python -m repro figures-1-4
    python -m repro models
    python -m repro resilience [--full] [--json BENCH_resilience.json]
    python -m repro integrity [--full] [--check] [--json BENCH_integrity.json]
    python -m repro topology-zoo [--full] [--check] [--json BENCH_topology.json]
    python -m repro soak [--schedules N] [--seed S] [--out-dir DIR]
    python -m repro ablations [--only period,estimator,...]
    python -m repro metrics figure5 [--tiny|--full] [--out PREFIX] [--profile]
    python -m repro solve --problem brusselator --ranks 4 --lb [--gantt]
    python -m repro serve [--state-dir D] [--socket S] [--workers N]
    python -m repro submit --kind figure5 --mode tiny [--wait] [--socket S]
    python -m repro jobs [--tenant T] [--json]
    python -m repro result JOB_ID [--follow]
    python -m repro health [--json]
    python -m repro audit-replay [--state-dir D] [--sample N]
    python -m repro list

The experiment commands run the corresponding experiment of DESIGN.md §4
and print its report (``--full`` for paper scale, where a verb has it);
``solve`` assembles a one-off run from flags.

Every sweep verb — the five rows of :data:`repro.sweeps.SWEEP_VERBS`
(figure5 / table1 / resilience / integrity / topology-zoo), ablations
and soak — accepts ``--jobs N`` to fan its independent runs over N
worker processes and caches finished runs under ``--cache-dir``
(default ``.repro-cache/``; disable with ``--no-cache``).  Reports are
byte-identical whatever the jobs/cache combination — see
``docs/performance.md`` for the contract.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from typing import Callable

from repro.sweeps import SWEEP_VERBS

__all__ = ["main"]


def _engine_for(args: argparse.Namespace):
    """Build the sweep engine a verb's ``--jobs``/``--cache`` flags ask for."""
    from repro.exec import RunCache, SweepEngine

    max_bytes = None
    if getattr(args, "cache_max_mb", None):
        max_bytes = int(args.cache_max_mb * 1e6)
    cache = RunCache(args.cache_dir, max_bytes=max_bytes) if args.cache else None
    return SweepEngine(jobs=args.jobs, cache=cache)


def _experiment(args: argparse.Namespace) -> str:
    """The engine-backed sweep verbs: one row of ``SWEEP_VERBS`` each."""
    verb = SWEEP_VERBS[args.command]
    mode = next((flag for flag in verb.flags if getattr(args, flag)), "quick")
    scenario = verb.preset(mode)
    if getattr(args, "problem", "synthetic") == "brusselator":
        # The Brusselator scale preset resizes the sweep (see the
        # scenario docstring), so it is its own preset rather than a
        # field swap on the synthetic one.
        scenario = (
            verb.preset("scale_brusselator")
            if mode == "scale"
            else replace(scenario, problem_kind="brusselator")
        )
    with _engine_for(args) as engine:
        result = verb.run(scenario, engine=engine)
    report = result.report()
    if getattr(args, "json", ""):
        from repro.analysis.perf import save_report

        data = result.to_dict()
        if verb.json_engine:
            data["engine"] = engine.stats.to_dict(timing=False)
        save_report(args.json, data)
        report += f"\n{args.command} report written to {args.json}"
    if getattr(args, "check", False):
        failures = result.gate_failures()
        if failures:
            print(report)
            raise SystemExit(
                f"{args.command} gate failed:\n  " + "\n  ".join(failures)
            )
        report += f"\n{args.command} gate passed"
    return report + f"\n[{engine.stats.summary()}]"


def _figures_1_4(args: argparse.Namespace) -> str:
    from repro.experiments import run_trace_figures

    return run_trace_figures().report()


def _models(args: argparse.Namespace) -> str:
    from repro.experiments import run_models_comparison

    return run_models_comparison().report()


def _obs_mode(args: argparse.Namespace) -> str:
    if args.full:
        return "full"
    if args.tiny:
        return "tiny"
    return "quick"


def _metrics(args: argparse.Namespace) -> str:
    """``repro metrics``: run an experiment, emit its metrics sidecar."""
    from repro.obs import run_observed

    obs = run_observed(
        args.experiment,
        mode=_obs_mode(args),
        profile=args.profile,
        with_trace=not args.no_trace,
    )
    lines = [obs.report()]
    for path, info in obs.write(args.out).items():
        lines.append(f"wrote {path} ({info})")
    if obs.traced is not None:
        lines.append(
            "open the .trace.json file at https://ui.perfetto.dev "
            "(or chrome://tracing)"
        )
    return "\n".join(lines)


_ABLATIONS: dict[str, str] = {
    "period": "sweep_lb_period",
    "threshold": "sweep_threshold_ratio",
    "accuracy": "sweep_accuracy",
    "famine": "sweep_min_components",
    "estimator": "sweep_estimator",
    "adaptive": "compare_adaptive_period",
    "detection": "compare_detection_protocols",
    "skip": "compare_skip_optimisation",
}


def _ablations(args: argparse.Namespace) -> str:
    import repro.experiments.ablations as ablations

    selected = (
        [k.strip() for k in args.only.split(",")] if args.only else list(_ABLATIONS)
    )
    unknown = [k for k in selected if k not in _ABLATIONS]
    if unknown:
        raise SystemExit(
            f"unknown ablation(s) {unknown}; choose from {sorted(_ABLATIONS)}"
        )
    parts = []
    with _engine_for(args) as engine:
        for key in selected:
            fn = getattr(ablations, _ABLATIONS[key])
            parts.append(fn(engine=engine).report())
    parts.append(f"[{engine.stats.summary()}]")
    return "\n\n".join(parts)


def _solve(args: argparse.Namespace) -> str:
    if args.lb and args.model != "aiac":
        print(
            f"repro solve: --lb balances the aiac model only, "
            f"not --model {args.model}",
            file=sys.stderr,
        )
        raise SystemExit(2)

    import numpy as np

    from repro.core import LBConfig, SolverConfig
    from repro.grid import Host, Link, Network, Platform, homogeneous_cluster
    from repro.models import MODELS
    from repro.problems import BrusselatorProblem, HeatProblem, SyntheticProblem

    if args.problem == "brusselator":
        problem = BrusselatorProblem(
            args.size, t_end=4.0, n_steps=max(10, args.size // 2)
        )
        speed = 20_000.0
    elif args.problem == "heat":
        problem = HeatProblem(args.size, t_end=0.05, n_steps=40)
        speed = 4_000.0
    elif args.problem == "synthetic":
        problem = SyntheticProblem.with_hard_region(
            args.size, easy_rate=0.5, hard_rate=0.95, active_cost=10.0
        )
        speed = 200.0
    else:  # pragma: no cover - argparse choices guard this
        raise SystemExit(f"unknown problem {args.problem!r}")

    if args.slow_factor > 1.0:
        network = Network(Link(latency=1e-4, bandwidth=100e6))
        hosts = [Host(f"node-{i:02d}", speed) for i in range(args.ranks - 1)]
        hosts.append(Host("slow", speed / args.slow_factor))
        platform = Platform(hosts=hosts, network=network)
    else:
        platform = homogeneous_cluster(args.ranks, speed=speed)

    config = SolverConfig(tolerance=args.tolerance, max_iterations=500_000)
    if args.lb:
        result = MODELS["aiac+lb"](
            problem, platform, config, LBConfig(period=args.lb_period)
        )
    else:
        result = MODELS[args.model](problem, platform, config)

    lines = [result.summary()]
    if hasattr(problem, "reference_solution"):
        reference = problem.reference_solution()
        lines.append(
            f"max error vs sequential reference: "
            f"{result.max_error_vs(reference):.3e}"
        )
    else:
        lines.append(f"max residual error: {float(np.max(result.solution())):.3e}")
    if args.lb:
        lines.append(
            f"migrations: {result.n_migrations} "
            f"({result.components_migrated} components); "
            f"final blocks: {result.meta['final_sizes']}"
        )
    if args.gantt:
        from repro.analysis import render_gantt

        lines.append(render_gantt(result, width=80))
    if args.json:
        result.save_json(args.json)
        lines.append(f"run summary written to {args.json}")
    return "\n".join(lines)


def _soak(args: argparse.Namespace) -> str:
    from repro.guard.soak import run_soak

    models = tuple(args.models.split(",")) if args.models else None
    with _engine_for(args) as engine:
        result = run_soak(
            n_schedules=args.schedules,
            seed=args.seed,
            models=models,
            out_dir=args.out_dir,
            shrink=not args.no_shrink,
            engine=engine,
        )
    if args.json:
        from repro.analysis.perf import save_report

        save_report(args.json, result.to_dict())
    report = result.report()
    report += f"\n[{engine.stats.summary()}]"
    if args.json:
        report += f"\nsoak report written to {args.json}"
    if not result.ok:
        # Print before raising: argparse handlers normally return the
        # report, but a failing soak must exit non-zero for CI.
        print(report)
        raise SystemExit(
            f"soak failed: {len(result.failures)} (schedule x model) "
            f"run(s) violated guard assertions"
        )
    return report


_DEFAULT_SOCKET = ".repro-serve/serve.sock"


def _serve_client(args: argparse.Namespace):
    from repro.serve import ServeClient

    return ServeClient(args.socket)


def _client_verb(handler: Callable[[argparse.Namespace], str]):
    """A verb that talks to a daemon: one that cannot be reached, or that
    answers ``ok: false``, is one line on stderr and exit 2."""

    def run(args: argparse.Namespace) -> str:
        from repro.serve import ServeError

        try:
            return handler(args)
        except ServeError as exc:
            print(f"repro {args.command}: {exc}", file=sys.stderr)
            raise SystemExit(2) from None

    return run


def _serve(args: argparse.Namespace) -> str:
    """``repro serve``: run the job-queue daemon in the foreground."""
    from repro.serve import ServeConfig, ServeDaemon

    config = ServeConfig(
        state_dir=args.state_dir,
        address=args.socket,
        workers=args.workers,
        cache=args.cache,
        cache_dir=args.cache_dir,
        cache_max_mb=args.cache_max_mb,
        quota=args.quota,
        job_timeout_s=args.job_timeout,
        max_retries=args.max_retries,
        retry_backoff_s=args.retry_backoff,
        durable=not args.no_fsync,
    )
    daemon = ServeDaemon(config)
    print(
        f"repro serve: listening on {config.resolved_address()} "
        f"(state: {config.state_dir}, workers: {config.workers}); Ctrl-C stops"
    )
    daemon.serve_forever()
    return "repro serve: stopped"


def _spec_from_args(args: argparse.Namespace) -> dict:
    spec: dict = {"kind": args.kind}
    if args.kind in ("figure5", "resilience"):
        spec["mode"] = args.mode
    elif args.kind == "soak":
        spec["schedules"] = args.schedules
        spec["seed"] = args.seed
    elif args.kind == "sleep":
        spec["seconds"] = args.seconds
        spec["tasks"] = args.tasks
    return spec


@_client_verb
def _submit(args: argparse.Namespace) -> str:
    client = _serve_client(args)
    job_id = client.submit(
        _spec_from_args(args), tenant=args.tenant, priority=args.priority
    )
    if not args.wait:
        return job_id
    job = client.result(job_id, follow=True)
    digest = (job.get("result") or {}).get("digest", "")
    report = f"{job_id}  {job['state']}  {digest}"
    if job["state"] != "done":
        print(report)
        raise SystemExit(f"job {job_id} finished {job['state']}: {job['error']}")
    return report


@_client_verb
def _jobs(args: argparse.Namespace) -> str:
    client = _serve_client(args)
    jobs = client.jobs(tenant=args.tenant or None)
    if args.json:
        import json

        return json.dumps(jobs, indent=2, sort_keys=True)
    if not jobs:
        return "no jobs"
    lines = [f"{'JOB':<10} {'TENANT':<12} {'PRI':>3} {'STATE':<9} KIND"]
    for job in jobs:
        lines.append(
            f"{job['job_id']:<10} {job['tenant']:<12} {job['priority']:>3} "
            f"{job['state']:<9} {job['kind']}"
        )
    return "\n".join(lines)


@_client_verb
def _result(args: argparse.Namespace) -> str:
    import json

    client = _serve_client(args)
    if not args.follow:
        return json.dumps(client.result(args.job_id), indent=2, sort_keys=True)
    for event in client.follow(args.job_id):
        if event.get("event") == "result":
            return json.dumps(event["job"], indent=2, sort_keys=True)
        print(f"{args.job_id}: {event.get('state', '?')}")
    raise SystemExit(f"stream for {args.job_id} ended without a result")


@_client_verb
def _health(args: argparse.Namespace) -> str:
    import json

    health = _serve_client(args).health()
    if args.json:
        return json.dumps(health, indent=2, sort_keys=True)
    states = " ".join(f"{k}={v}" for k, v in health["states"].items())
    report = (
        f"ok: {health['ok']}\n"
        f"address: {health['address']}\n"
        f"uptime_s: {health['uptime_s']:.1f}\n"
        f"queue_depth: {health['queue_depth']}\n"
        f"states: {states}\n"
        f"cache_hit_rate: {health['cache_hit_rate']:.3f}\n"
        f"watchdog_kills: {health['watchdog_kills']}\n"
        f"wal_seq: {health['wal_seq']}  audit_seq: {health['audit_seq']}"
    )
    if not health["ok"]:
        print(report)
        raise SystemExit("daemon reports unhealthy")
    return report


def _audit_replay(args: argparse.Namespace) -> str:
    """Offline byte-verification of a served audit window (no daemon)."""
    import os

    from repro.serve import audit_replay

    path = args.audit or os.path.join(args.state_dir, "audit.jsonl")
    result = audit_replay(path, sample=args.sample, seed=args.seed)
    report = result.report()
    if not result.ok:
        # Print before raising: a digest mismatch must exit non-zero for CI.
        print(report)
        raise SystemExit(
            f"audit-replay failed: {len(result.mismatches)} of "
            f"{len(result.rows)} replayed record(s) did not reproduce "
            f"their served digest"
        )
    return report


def _list(args: argparse.Namespace) -> str:
    """Every subcommand with its ``--help`` line, read off the parser."""
    (verbs,) = (
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return "\n".join(f"{a.dest:<12} {a.help}" for a in verbs._choices_actions)


def _add_engine_flags(cmd: argparse.ArgumentParser) -> None:
    """``--jobs`` / ``--cache`` / ``--cache-dir`` for every sweep verb."""
    from repro.exec import DEFAULT_CACHE_DIR

    cmd.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for independent runs (default 1: serial)",
    )
    cmd.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="reuse cached run results (--no-cache to recompute everything)",
    )
    cmd.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help=f"run-cache directory (default {DEFAULT_CACHE_DIR}/)",
    )
    cmd.add_argument(
        "--cache-max-mb",
        type=float,
        default=None,
        help="cap the run cache at this size, evicting least-recently-used "
        "entries (default: unbounded)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, verb in SWEEP_VERBS.items():
        cmd = sub.add_parser(name, help=verb.help)
        cmd.set_defaults(handler=_experiment)
        for flag, flag_help in verb.flags.items():
            cmd.add_argument(f"--{flag}", action="store_true", help=flag_help)
        if verb.json:
            cmd.add_argument("--json", default="", help=verb.json)
        if verb.check:
            cmd.add_argument("--check", action="store_true", help=verb.check)
        _add_engine_flags(cmd)
    sub.choices["figure5"].add_argument(
        "--problem",
        choices=("synthetic", "brusselator"),
        default="synthetic",
        help="workload driving the sweep: the synthetic "
        "activity-concentration problem (default) or the real "
        "Brusselator PDE numerics",
    )
    for name, fn, text in [
        (
            "figures-1-4",
            _figures_1_4,
            "SISC/SIAC/AIAC execution flows (paper Figures 1-4)",
        ),
        (
            "models",
            _models,
            "cluster vs grid model comparison (paper §6); runs in process, "
            "uncached",
        ),
        ("list", _list, "every subcommand with this one-line help"),
    ]:
        sub.add_parser(name, help=text).set_defaults(handler=fn)

    obs_cmd = sub.add_parser(
        "metrics", help="run an experiment and emit its metrics sidecar (+ trace)"
    )
    obs_cmd.set_defaults(handler=_metrics)
    obs_cmd.add_argument(
        "experiment",
        choices=("figure5", "table1", "resilience"),
        help="which experiment to observe",
    )
    obs_cmd.add_argument(
        "--tiny", action="store_true", help="smallest instance (CI smoke)"
    )
    obs_cmd.add_argument(
        "--full", action="store_true", help="paper-scale run (minutes)"
    )
    obs_cmd.add_argument(
        "--out",
        default="obs",
        help="output prefix: writes PREFIX.metrics.jsonl + PREFIX.trace.json",
    )
    obs_cmd.add_argument(
        "--profile",
        action="store_true",
        help="attach the DES profiler to the traced headline run",
    )
    obs_cmd.add_argument(
        "--no-trace",
        action="store_true",
        help="skip the traced headline run (metrics sidecar only)",
    )

    soak_cmd = sub.add_parser(
        "soak", help="chaos soak: random fault schedules under repro.guard"
    )
    soak_cmd.set_defaults(handler=_soak)
    soak_cmd.add_argument(
        "--schedules", type=int, default=50, help="random schedules to run"
    )
    soak_cmd.add_argument(
        "--seed", type=int, default=0, help="soak seed (schedules + injector)"
    )
    soak_cmd.add_argument(
        "--models",
        default="",
        help="comma-separated subset of: sisc,siac,aiac,aiac+lb (default all)",
    )
    soak_cmd.add_argument(
        "--out-dir",
        default=".",
        help="directory for minimal-reproducer JSON files",
    )
    soak_cmd.add_argument(
        "--json", default="", help="write the soak report to this JSON file"
    )
    soak_cmd.add_argument(
        "--no-shrink",
        action="store_true",
        help="skip shrinking failing schedules (faster failure turnaround)",
    )
    _add_engine_flags(soak_cmd)

    ablation_cmd = sub.add_parser(
        "ablations",
        help=f"design-knob sweeps: {', '.join(sorted(_ABLATIONS))}",
    )
    ablation_cmd.set_defaults(handler=_ablations)
    ablation_cmd.add_argument(
        "--only",
        default="",
        help=f"comma-separated subset of: {', '.join(sorted(_ABLATIONS))}",
    )
    _add_engine_flags(ablation_cmd)

    serve_cmd = sub.add_parser(
        "serve", help="persistent job-queue daemon over the sweep engine"
    )
    serve_cmd.set_defaults(handler=_serve)
    serve_cmd.add_argument(
        "--state-dir",
        default=".repro-serve",
        help="WAL + audit log + cache + artifacts directory (default .repro-serve/)",
    )
    serve_cmd.add_argument(
        "--socket",
        default="",
        help="unix-socket path or tcp:HOST:PORT (default STATE_DIR/serve.sock)",
    )
    serve_cmd.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker processes of the persistent sweep engine (default 2)",
    )
    serve_cmd.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="serve repeated specs from the run cache (--no-cache disables)",
    )
    serve_cmd.add_argument(
        "--cache-dir",
        default="",
        help="run-cache directory (default STATE_DIR/cache)",
    )
    serve_cmd.add_argument(
        "--cache-max-mb",
        type=float,
        default=None,
        help="cap the run cache, evicting least-recently-used entries",
    )
    serve_cmd.add_argument(
        "--quota",
        type=int,
        default=16,
        help="per-tenant cap on outstanding (queued + running) jobs",
    )
    serve_cmd.add_argument(
        "--job-timeout",
        type=float,
        default=600.0,
        help="stall watchdog: kill + requeue jobs running longer than this (s)",
    )
    serve_cmd.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="watchdog/cancel requeues before a job is declared killed",
    )
    serve_cmd.add_argument(
        "--retry-backoff",
        type=float,
        default=1.0,
        help="base of the exponential requeue backoff (s)",
    )
    serve_cmd.add_argument(
        "--no-fsync",
        action="store_true",
        help="skip fsync on WAL/audit appends (faster, weaker durability)",
    )

    submit_cmd = sub.add_parser(
        "submit", help="enqueue a job on a running serve daemon"
    )
    submit_cmd.set_defaults(handler=_submit)
    submit_cmd.add_argument(
        "--kind",
        required=True,
        choices=("figure5", "resilience", "soak", "sleep"),
        help="which workload to enqueue",
    )
    submit_cmd.add_argument(
        "--mode",
        default="tiny",
        choices=("tiny", "quick", "full"),
        help="scenario preset for figure5/resilience (default tiny)",
    )
    submit_cmd.add_argument(
        "--schedules", type=int, default=5, help="soak: random schedules"
    )
    submit_cmd.add_argument("--seed", type=int, default=0, help="soak seed")
    submit_cmd.add_argument(
        "--seconds", type=float, default=0.1, help="sleep: seconds per task"
    )
    submit_cmd.add_argument(
        "--tasks", type=int, default=1, help="sleep: number of tasks"
    )
    submit_cmd.add_argument("--tenant", default="default")
    submit_cmd.add_argument(
        "--priority", type=int, default=0, help="higher runs first"
    )
    submit_cmd.add_argument(
        "--wait",
        action="store_true",
        help="block until the job is terminal; non-zero exit unless done",
    )
    submit_cmd.add_argument("--socket", default=_DEFAULT_SOCKET)

    jobs_cmd = sub.add_parser("jobs", help="list a serve daemon's jobs")
    jobs_cmd.set_defaults(handler=_jobs)
    jobs_cmd.add_argument("--tenant", default="", help="filter to one tenant")
    jobs_cmd.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    jobs_cmd.add_argument("--socket", default=_DEFAULT_SOCKET)

    result_cmd = sub.add_parser(
        "result", help="fetch (or --follow) one job's state and result"
    )
    result_cmd.set_defaults(handler=_result)
    result_cmd.add_argument("job_id")
    result_cmd.add_argument(
        "--follow",
        action="store_true",
        help="stream state transitions until the job is terminal",
    )
    result_cmd.add_argument("--socket", default=_DEFAULT_SOCKET)

    health_cmd = sub.add_parser(
        "health", help="daemon status; non-zero exit if unhealthy"
    )
    health_cmd.set_defaults(handler=_health)
    health_cmd.add_argument(
        "--json", action="store_true", help="full health document as JSON"
    )
    health_cmd.add_argument("--socket", default=_DEFAULT_SOCKET)

    audit_cmd = sub.add_parser(
        "audit-replay",
        help="re-run a sample of served jobs offline and byte-verify digests",
    )
    audit_cmd.set_defaults(handler=_audit_replay)
    audit_cmd.add_argument(
        "--state-dir",
        default=".repro-serve",
        help="serve state directory holding audit.jsonl",
    )
    audit_cmd.add_argument(
        "--audit", default="", help="explicit audit log path (overrides --state-dir)"
    )
    audit_cmd.add_argument(
        "--sample",
        type=int,
        default=5,
        help="done-records to replay (seeded sample; default 5)",
    )
    audit_cmd.add_argument("--seed", type=int, default=0)

    solve_cmd = sub.add_parser("solve", help="run a one-off custom solve")
    solve_cmd.set_defaults(handler=_solve)
    solve_cmd.add_argument(
        "--problem",
        choices=("brusselator", "heat", "synthetic"),
        default="brusselator",
    )
    solve_cmd.add_argument("--size", type=int, default=48, help="components")
    solve_cmd.add_argument("--ranks", type=int, default=4, help="processors")
    solve_cmd.add_argument(
        "--slow-factor",
        type=float,
        default=1.0,
        help="make the last host this many times slower (heterogeneity)",
    )
    solve_cmd.add_argument(
        "--model", choices=("aiac", "sisc", "siac"), default="aiac"
    )
    solve_cmd.add_argument(
        "--lb", action="store_true", help="enable dynamic load balancing"
    )
    solve_cmd.add_argument("--lb-period", type=int, default=10)
    solve_cmd.add_argument("--tolerance", type=float, default=1e-7)
    solve_cmd.add_argument(
        "--gantt", action="store_true", help="print the execution Gantt"
    )
    solve_cmd.add_argument(
        "--json", default="", help="write the run summary to this JSON file"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler: Callable[[argparse.Namespace], str] = args.handler
    start = time.perf_counter()
    report = handler(args)
    try:
        print(report)
        if args.command not in ("list",):
            print(
                f"\n[{args.command} completed in "
                f"{time.perf_counter() - start:.1f}s]"
            )
    except BrokenPipeError:  # e.g. ``repro result ... | head``
        return 0
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
