"""Session-wide sweep fixtures, the scipy oracle of the reference, and
the two paths of every problem's sweep.

The tiny/quick sweeps are the most expensive things tier-1 runs, and
several test modules want the same ones (the shape tests, the
determinism tests, the cache-key and digest pins of
``test_experiment_pins.py``).  Each named sweep therefore runs once per
session, through a :class:`SpyEngine` that also remembers the tasks it
was handed; the results are read-only to every consumer.
"""

import functools

import pytest

from repro.exec import SweepEngine


class SpyEngine(SweepEngine):
    """The default serial, uncached engine, remembering every task.

    With ``payload`` set no task runs: ``map`` answers each one with
    that payload — enough to see how a sweep *builds* its tasks.
    """

    def __init__(self, payload=None):
        super().__init__()
        self.seen = []
        self.payload = payload

    def map(self, tasks):
        self.seen.extend(tasks)
        if self.payload is not None:
            return [self.payload for _ in tasks]
        return super().map(tasks)


def _figure5_tiny(engine, tmp):
    from repro.experiments import run_figure5
    from repro.workloads import Figure5Scenario

    return run_figure5(Figure5Scenario.tiny(), engine=engine)


def _resilience_tiny(engine, tmp):
    from repro.experiments import run_resilience
    from repro.workloads import ResilienceScenario

    return run_resilience(ResilienceScenario.tiny(), engine=engine)


def _integrity_tiny(engine, tmp):
    from repro.experiments import run_integrity
    from repro.workloads import IntegrityScenario

    return run_integrity(IntegrityScenario.tiny(), engine=engine)


def _zoo_quick(engine, tmp):
    from repro.experiments import TopologyZooScenario, run_topology_zoo

    return run_topology_zoo(TopologyZooScenario.quick(), engine=engine)


def _soak_2(engine, tmp):
    from repro.guard.soak import run_soak

    return run_soak(
        n_schedules=2, seed=0, out_dir=str(tmp), shrink=False, engine=engine
    )


_SWEEPS = {
    "figure5-tiny": _figure5_tiny,
    "resilience-tiny": _resilience_tiny,
    "integrity-tiny": _integrity_tiny,
    "zoo-quick": _zoo_quick,
    "soak-2": _soak_2,
}


@pytest.fixture(scope="session")
def spied_sweep(tmp_path_factory):
    """``spied_sweep(name) -> (result, tasks)``, one real run per name."""
    done = {}

    def run(name):
        if name not in done:
            engine = SpyEngine()
            result = _SWEEPS[name](engine, tmp_path_factory.mktemp("sweep"))
            done[name] = (result, engine.seen)
        return done[name]

    return run


@pytest.fixture
def run_check(monkeypatch):
    """``run_check(verb, result)``: ``repro VERB --check`` on ``result``.

    The verb's runner is stubbed to hand back ``result``, so a result
    doctored to break one gate clause reaches the CLI's gate without a
    sweep.  A broken clause raises ``SystemExit`` with the failure lines.
    """
    from repro.cli import main
    from repro.sweeps import SweepVerb

    def run(verb, result):
        monkeypatch.setattr(
            SweepVerb, "run", lambda self, scenario, **kwargs: result
        )
        return main([verb, "--check", "--no-cache"])

    return run


@pytest.fixture(scope="session")
def table1_quick_observed():
    """``(result, sidecar)`` of the one real Table 1 quick run (~8 s).

    It takes the observed path so that the sidecar digest can be pinned
    from the same run the shape test reads; the engine path is held
    equal to it at a smaller size in ``test_exec_sweeps.py``.
    """
    from repro.experiments import run_table1
    from repro.obs import MetricsSidecar
    from repro.workloads import Table1Scenario

    sidecar = MetricsSidecar()
    return run_table1(Table1Scenario.quick(), sidecar=sidecar), sidecar


@pytest.fixture(scope="session")
def observed_run():
    """``observed_run(experiment, mode, **kwargs)``: a cached
    :func:`~repro.obs.run_observed`."""
    from repro.obs import run_observed

    done = {}

    def run(experiment, mode, **kwargs):
        key = (experiment, mode, tuple(sorted(kwargs.items())))
        if key not in done:
            done[key] = run_observed(experiment, mode=mode, **kwargs)
        return done[key]

    return run


@pytest.fixture
def scipy_banded(monkeypatch):
    """For one test, scipy does the sequential reference's banded solves.

    ``implicit_euler_banded`` asks the matrix it builds for nothing but
    ``lu_factor().solve(b)``, so swapping the class it names makes
    ``scipy.linalg.solve_banded`` an independent oracle behind
    ``BrusselatorProblem.reference_solution()``.
    """
    solve_banded = pytest.importorskip("scipy.linalg").solve_banded

    class ScipyBanded:
        def __init__(self, bands, kl, ku):
            self.bands, self.kl, self.ku = bands, kl, ku

        def lu_factor(self):
            return self

        def solve(self, b):
            return solve_banded((self.kl, self.ku), self.bands, b)

    monkeypatch.setattr("repro.numerics.euler.BandedMatrix", ScipyBanded)


#: The two paths of every problem's sweep and of the lockstep round: the
#: Python reference (the Brusselator's scalar sweep, the heat and
#: synthetic problems' NumPy sweeps; for the round, which has no Python
#: path in the product, the NumPy oracle ``tests.oracles.lockstep_round``
#: stood in for the compiled one) and the compiled module held to it.
SWEEP_PATHS = ("python", "compiled")


@functools.cache
def compiled_kernel():
    """``(module, status)`` of this host's compiled kernels, loaded once."""
    from repro.problems import _compiled

    return _compiled._load_kernel()


def force_sweep_path(monkeypatch, path):
    """Make every sweep of every problem, and the lockstep round, take
    ``path`` (one of :data:`SWEEP_PATHS`) by standing in for the loader's
    result; a host where no module loads skips the compiled path (CI
    requires one)."""
    if path == "python":
        from repro.problems import _compiled
        from tests import oracles

        use_kernel(monkeypatch, (None, "python: test"))
        monkeypatch.setitem(vars(_compiled), "lockstep_round", oracles)
        return
    kernel = compiled_kernel()
    if kernel[0] is None:
        pytest.skip(kernel[1])
    use_kernel(monkeypatch, kernel)


@pytest.fixture
def replay_round(monkeypatch):
    """The lockstep replay runs on any host: where no compiled module
    loads, the NumPy oracle stands in for its round (the ``python``
    path), so a test that expects ``engine == "lockstep"`` still tests
    the replay rather than its fallback to ``run_sisc``."""
    if compiled_kernel()[0] is None:
        force_sweep_path(monkeypatch, "python")


def use_kernel(monkeypatch, kernel):
    """Stand ``(module or None, status)`` in for the loader's result, every
    kernel resolved to ``module``.  The kernels go into the module's dict:
    ``monkeypatch.setattr`` would read each old value through
    ``_compiled.__getattr__``, resolving it under the stand-in and leaving
    that behind as the value to restore."""
    from repro.problems import _compiled

    monkeypatch.setattr(_compiled, "_KERNEL", kernel)
    for name in _compiled.KERNELS:
        monkeypatch.setitem(vars(_compiled), name, kernel[0])
