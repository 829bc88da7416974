"""What a process loads: no graph library, and no more of ``repro`` than
its verb runs.

The solver's chain is ``rank ± 1``, so a paper experiment never loads
:mod:`repro.topology.graphs`, the LB zoo's graph layer; only the zoo's
non-chain families and spectral helpers need networkx, and they import
it inside the call.  A package
``__init__`` imports nothing it re-exports (``repro._exports``), so the
client verbs run without numpy and a paper experiment without the
serve / obs / balancing / soak / lockstep stacks.  Checked in fresh
interpreters because this process has long since loaded everything.
"""

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

SCRIPT = textwrap.dedent(
    """
    import sys
    from dataclasses import replace

    HEAVY = {"networkx", "scipy"}
    UNUSED = (
        "repro.serve", "repro.obs", "repro.balancing", "repro.guard.soak",
        "repro.models.lockstep", "repro.numerics.banded",
        "repro.topology.graphs",
    )

    def loaded(stage):
        bad = HEAVY & set(sys.modules)
        assert not bad, f"{stage}: loaded {sorted(bad)}"

    def footprint(stage):
        loaded(stage)
        bad = sorted(name for name in sys.modules if name.startswith(UNUSED))
        assert not bad, f"{stage}: loaded {bad}"
        ours = sorted(name for name in sys.modules if name.startswith("repro"))
        assert len(ours) <= 55, f"{stage}: {len(ours)} repro modules: {ours}"

    from repro.experiments import run_table1
    from repro.workloads import Table1Scenario

    run_table1(
        replace(Table1Scenario.quick(), n_points=45, n_steps=10, tolerance=1e-3)
    )
    footprint("run_table1")

    from repro.experiments import run_figure5
    from repro.workloads import Figure5Scenario

    run_figure5(Figure5Scenario.tiny())
    footprint("run_figure5")

    from repro.experiments import run_integrity
    from repro.workloads import IntegrityScenario

    run_integrity(replace(IntegrityScenario.tiny(), arms=("detect",)))
    loaded("run_integrity")

    # A package imports an export when it is first read: read them all.
    import repro, repro.cli, repro.experiments, repro.workloads
    import repro.obs, repro.serve
    for package in (repro, repro.experiments, repro.workloads, repro.obs,
                    repro.serve):
        for name in package.__all__:
            getattr(package, name)
    loaded("every export")

    # The check can fail: a non-chain family is built by networkx.
    from repro.topology.graphs import build_topology, spec_for_family
    build_topology(spec_for_family("chain", 8))
    loaded("chain topology")
    build_topology(spec_for_family("ring", 8))
    assert "networkx" in sys.modules
    print("ok")
    """
)


def run_fresh(script, *path_first, argv=()):
    """``script`` in a fresh interpreter; it must end by printing ``ok``."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env={**os.environ, "PYTHONPATH": os.pathsep.join([*path_first, SRC])},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("ok")
    return proc.stdout


def test_paper_experiments_never_load_networkx_or_scipy():
    # ... nor, for Table 1 and Figure 5, a stack they do not run.
    run_fresh(SCRIPT)


SCALE_REPLAY_SCRIPT = textwrap.dedent(
    """
    import sys
    from dataclasses import replace

    from repro.models import run_sisc_batched
    from repro.problems import _compiled
    from repro.workloads import ScaleScenario

    if _compiled.lockstep_round is None:
        # No compiled round on this host: its NumPy oracle stands in.
        from tests import oracles

        _compiled.lockstep_round = oracles
    ENGINE = (
        "repro.des", "repro.core.solver", "repro.core.lb", "repro.runtime.node",
        "repro.runtime.message", "repro.models.sisc", "repro.models.siac",
        "repro.problems.synthetic", "repro.topology.graphs",
    )
    scenario = ScaleScenario(
        problem_kind="brusselator", n_ranks=6, components_per_rank=4
    )
    config = replace(scenario.solver_config(), max_iterations=30)

    def run(config, scenario=scenario):
        return run_sisc_batched(scenario.problem(), scenario.platform(), config)

    replayed = run(config)
    assert replayed.meta["engine"] == "lockstep", replayed.meta
    bad = sorted(name for name in sys.modules if name.startswith(ENGINE))
    assert not bad, f"the replay loaded {bad}"
    ours = sorted(name for name in sys.modules if name.startswith("repro"))
    assert len(ours) <= 28, f"{len(ours)} repro modules: {ours}"

    # The synthetic problem's replay loads no engine either.
    replayed = run(config, ScaleScenario(n_ranks=6, components_per_rank=4))
    assert replayed.meta["engine"] == "lockstep", replayed.meta
    engine = tuple(m for m in ENGINE if m != "repro.problems.synthetic")
    bad = sorted(name for name in sys.modules if name.startswith(engine))
    assert not bad, f"the synthetic replay loaded {bad}"

    # The one path that needs the event-driven engine still finds it.
    fallen = run(replace(config, detection="token_ring"))
    assert "repro.models.sisc" in sys.modules

    from repro.analysis.perf import run_fingerprint
    from repro.models import run_sisc

    reference = run_sisc(
        scenario.problem(), scenario.platform(),
        replace(config, detection="token_ring"),
    )
    assert run_fingerprint(fallen) == run_fingerprint(reference)
    print("ok")
    """
)


FIGURE5_SCRIPT = textwrap.dedent(
    """
    import sys

    from repro.experiments import run_figure5
    from repro.workloads import Figure5Scenario

    run_figure5(Figure5Scenario.tiny())
    bad = sorted(name for name in sys.modules if name.startswith("repro.topology"))
    assert not bad, f"run_figure5 loaded {bad}"
    print("ok")
    """
)


def test_figure5_loads_no_topology_module():
    # Figure 5 runs on a homogeneous cluster in rank order: neither a
    # chain ordering nor a graph is built, so no ``repro.topology``
    # module (the package included) is imported.
    run_fresh(FIGURE5_SCRIPT)


def test_the_scale_replay_loads_no_event_driven_engine():
    # ``run_sisc_batched`` dispatches no event: its process compiles
    # neither the DES, the AIAC solvers nor the problem it does not run.
    run_fresh(SCALE_REPLAY_SCRIPT, str(Path(SRC).parent))


#: How a script ends whose process may load neither numpy nor much of us.
LIGHT_PROCESS = textwrap.dedent(
    """
    assert "numpy" not in sys.modules
    ours = sorted(name for name in sys.modules if name.startswith("repro"))
    assert len(ours) <= 10, ours
    print("ok")
    """
)

PARSER_SCRIPT = textwrap.dedent(
    """
    import sys

    import repro.cli

    repro.cli.build_parser()
    stacks = (
        "repro.experiments", "repro.faults", "repro.guard",
        "repro.balancing", "repro.obs", "repro.serve",
    )
    bad = sorted(name for name in sys.modules if name.startswith(stacks))
    assert not bad, bad
    """
) + LIGHT_PROCESS


def test_building_the_cli_parser_loads_no_experiment_stack():
    # Every verb pays for the parser, ``repro health`` included; the
    # sweep-verb table it is built from names its targets as strings.
    run_fresh(PARSER_SCRIPT)


CLIENT_SCRIPT = "import sys; from repro.serve import ServeClient\n" + LIGHT_PROCESS


def test_the_serve_client_loads_no_numpy():
    # A client verb writes one JSON line to a socket.
    run_fresh(CLIENT_SCRIPT)


COLD_DAEMON_SCRIPT = textwrap.dedent(
    """
    import sys

    from repro.serve import ServeClient, ServeConfig, ServeDaemon

    spec = {"kind": "figure5", "mode": "tiny"}
    # One worker: the job runs on the dispatcher thread of this process,
    # which resolves the experiment stack while handler threads answer
    # the client's polling below.
    daemon = ServeDaemon(
        ServeConfig(state_dir=sys.argv[1], workers=1, durable=False)
    )
    assert "repro.experiments" not in sys.modules
    daemon.start()
    try:
        client = ServeClient(daemon.config.resolved_address())
        client.wait_until_up()
        job = client.result(client.submit(spec), follow=True, timeout=120.0)
    finally:
        daemon.stop()
    assert job["state"] == "done", job

    from repro.serve import execute_spec, validate_spec

    assert job["result"]["digest"] == execute_spec(validate_spec(spec))["digest"]
    print("ok")
    """
)


def test_a_daemons_first_job_resolves_its_stack_under_handler_threads(tmp_path):
    run_fresh(COLD_DAEMON_SCRIPT, argv=[str(tmp_path / "serve")])


NO_SCIPY_SCRIPT = textwrap.dedent(
    """
    import repro.cli
    from repro.experiments.topology_zoo import (
        TopologyZooScenario, run_topology_zoo,
    )

    # ``solve`` checks the answer against the sequential banded
    # reference; the zoo's accelerated policy builds a graph Laplacian.
    repro.cli.main(
        ["solve", "--problem", "brusselator", "--size", "24", "--ranks", "3"]
    )
    run_topology_zoo(TopologyZooScenario.quick())
    print("ok")
    """
)


def test_the_product_runs_without_scipy(tmp_path):
    # scipy is a ``test`` extra (an oracle the tests call themselves),
    # not a dependency: no file under ``src/`` imports it, and with an
    # import-poisoned stub first on the path the verbs that used to
    # reach it by default still run.
    assert not [
        str(path)
        for path in Path(SRC).rglob("*.py")
        if re.search(r"\b(import|from) scipy\b", path.read_text())
    ]
    stub = tmp_path / "scipy"
    stub.mkdir()
    (stub / "__init__.py").write_text(
        "raise ImportError('scipy is poisoned for this test')\n"
    )
    stdout = run_fresh(NO_SCIPY_SCRIPT, str(tmp_path))
    assert "max error vs sequential reference" in stdout
