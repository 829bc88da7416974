"""networkx and scipy stay off the paper experiments' import and run path.

The solver's chain is a native :class:`~repro.topology.graphs.Topology`;
only the LB zoo's non-chain families, graph statistics and spectral
helpers need networkx, and they import it inside the call.  Checked in
a fresh interpreter because this process has long since loaded both.
"""

import os
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

    def loaded(stage):
        bad = HEAVY & set(sys.modules)
        assert not bad, f"{stage}: loaded {sorted(bad)}"

    import repro, repro.cli, repro.experiments, repro.workloads
    import repro.obs, repro.serve
    loaded("imports")

    from repro.experiments import run_figure5, run_integrity, run_table1
    from repro.workloads.scenarios import (
        Figure5Scenario, IntegrityScenario, Table1Scenario,
    )

    run_figure5(Figure5Scenario.tiny())
    loaded("run_figure5")
    run_table1(
        replace(Table1Scenario.quick(), n_points=45, n_steps=10, tolerance=1e-3)
    )
    loaded("run_table1")
    run_integrity(replace(IntegrityScenario.tiny(), arms=("detect",)))
    loaded("run_integrity")

    # The check can fail: a non-chain family is built by networkx.
    from repro.topology.graphs import build_topology, spec_for_family
    build_topology(spec_for_family("chain", 8))
    loaded("chain topology")
    build_topology(spec_for_family("ring", 8))
    assert "networkx" in sys.modules
    print("ok")
    """
)


def test_paper_experiments_never_load_networkx_or_scipy():
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("ok")


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
    print("ok")
    """
)


def test_building_the_cli_parser_loads_no_experiment_stack():
    # Every verb pays for the parser, ``repro health`` included; the
    # sweep-verb table it is built from names its targets as strings.
    proc = subprocess.run(
        [sys.executable, "-c", PARSER_SCRIPT],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("ok")


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
    # scipy is a ``test`` extra (an oracle some tests ask for by name),
    # not a dependency: with an import-poisoned stub first on the path
    # the verbs that used to reach it by default must still run.
    stub = tmp_path / "scipy"
    stub.mkdir()
    (stub / "__init__.py").write_text(
        "raise ImportError('scipy is poisoned for this test')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT],
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(tmp_path), SRC])},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "max error vs sequential reference" in proc.stdout
    assert proc.stdout.strip().endswith("ok")
