"""Isolated drivers: one layer's public call, timed at a workload's shape.

A traced run can time ``repro.problems`` from outside (the solver hands
it a proxy) but not the layers the solver calls internally — the event
queue, the network model, the transport.  These drivers time those
public calls on their own, at the process count / batch size / payload
the workload uses, so the traced run can apportion ``core.self_s``
(events x ``des.dispatch_us``, messages x ``runtime.send_us``, ...).

Every driver returns microseconds per operation (or a ratio / seconds
where named so) and builds its inputs from fixed constants: the
simulation layers are deterministic, so the only noise is the host's.
:class:`Drivers` carries the one knob they share — how long each may
measure — so the ``--smoke`` pass can run them all in a blink.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import asdict
from time import perf_counter
from typing import Any, Callable

import numpy as np

__all__ = ["Drivers"]


def _balanced_run(scenario: Any, **hooks: Any) -> Callable[[], Any]:
    from repro.core.lb import run_balanced_aiac

    def run() -> None:
        result = run_balanced_aiac(
            scenario.problem(),
            scenario.platform(),
            scenario.solver_config(),
            scenario.lb_config(),
            **{name: make() for name, make in hooks.items()},
        )
        if not result.converged:
            raise RuntimeError("overhead driver run did not converge")

    return run


def _noop_task(index: int) -> dict[str, int]:
    return {"index": index}


class Drivers:
    """The isolated drivers, sharing one measuring budget.

    ``budget_s`` is how long one pass of a per-operation driver runs
    and ``passes`` how many passes (or whole runs, for the overhead
    ratios) it takes the fastest of: the drivers measure the cost of a
    code path, and on a shared host every disturbance only adds time.
    """

    def __init__(self, *, budget_s: float = 0.05, passes: int = 3) -> None:
        self.budget_s = budget_s
        self.passes = passes

    def per_op_us(self, fn: Callable[[], Any], *, ops: int = 1) -> float:
        """Microseconds per operation of ``fn`` (which performs ``ops``)."""
        fn()  # warm caches and lazy imports outside the timed passes
        best = float("inf")
        for _ in range(self.passes):
            calls = 0
            t0 = perf_counter()
            while True:
                fn()
                calls += 1
                elapsed = perf_counter() - t0
                if elapsed >= self.budget_s:
                    break
            best = min(best, elapsed / (calls * ops))
        return best * 1e6

    def best_of(self, fn: Callable[[], Any]) -> float:
        """Fastest wall-clock seconds of ``passes`` calls of ``fn``."""
        best = float("inf")
        for _ in range(self.passes):
            t0 = perf_counter()
            fn()
            best = min(best, perf_counter() - t0)
        return best

    # ------------------------------------------------------------------
    # des
    # ------------------------------------------------------------------
    def des_dispatch_us(self, n_procs: int, holds: int = 200) -> float:
        """One dispatched event: ``n_procs`` generator processes on ``Hold``."""
        from repro.des import Hold, Simulator

        def worker(period: float):
            for _ in range(holds):
                yield Hold(period)

        def run() -> None:
            sim = Simulator()
            for i in range(n_procs):
                # Distinct periods keep the queue at n_procs distinct
                # timestamps, as unsynchronised AIAC ranks do.
                sim.spawn(f"p{i}", worker(1.0 + i / (8.0 * n_procs)))
            sim.run()

        return self.per_op_us(run, ops=n_procs * (holds + 1))

    def des_queue_op_us(self, depth: int) -> float:
        """One ``push_call`` + ``pop`` pair at a live depth of ``depth``."""
        from repro.des import EventQueue

        queue = EventQueue()
        for i in range(depth):
            queue.push_call(float(i), print, ())
        clock = [float(depth)]
        batch = 1000

        def run() -> None:
            t = clock[0]
            for _ in range(batch):
                queue.push_call(t, print, ())
                queue.pop()
                t += 1.0
            clock[0] = t

        return self.per_op_us(run, ops=batch)

    # ------------------------------------------------------------------
    # grid
    # ------------------------------------------------------------------
    def grid_arrival_us(self, platform: Any, nbytes: float) -> float:
        """``Network.arrival_time`` between the platform's first two hosts."""
        import copy

        platform = copy.deepcopy(platform)
        network = platform.network
        a, b = platform.hosts[0], platform.hosts[-1]
        clock = [0.0]
        batch = 1000

        def run() -> None:
            t = clock[0]
            for _ in range(batch):
                network.arrival_time(a, b, nbytes, t)
                t += 1.0
            clock[0] = t

        return self.per_op_us(run, ops=batch)

    def grid_duration_us(self, platform: Any, work: float) -> float:
        """``Host.duration_for_work`` cycled over the platform's hosts."""
        hosts = platform.hosts
        clock = [0.0]

        def run() -> None:
            t = clock[0]
            for host in hosts:
                host.duration_for_work(work, t)
            clock[0] = (t + 37.0) % 5000.0

        return self.per_op_us(run, ops=len(hosts))

    # ------------------------------------------------------------------
    # runtime
    # ------------------------------------------------------------------
    def runtime_send_us(self, *, resilient: bool, exchanges: int = 400) -> float:
        """One message through ``GridNode.send`` in a two-node ping-pong.

        ``resilient=True`` installs a :class:`FaultInjector` with an empty
        schedule, which switches both nodes onto the acked transport
        (sequence numbers, ack, retry timer) — the overhead baseline the
        injector's docstring describes.
        """
        from repro.core.solver import build_chain
        from repro.faults import FaultInjector
        from repro.faults.models import FaultSchedule, ResilienceConfig
        from repro.grid.platform import homogeneous_cluster
        from repro.problems import SyntheticProblem

        payload = np.zeros(8)

        def run() -> None:
            chain = build_chain(
                SyntheticProblem(np.full(4, 0.5)), homogeneous_cluster(2)
            )
            if resilient:
                FaultInjector(
                    FaultSchedule(faults=(), seed=0, resilience=ResilienceConfig())
                ).install(chain)
            a, b = chain.ranks[0].node, chain.ranks[1].node
            left = [exchanges]

            def on_ping(message) -> None:
                b.send(a, "pong", message.payload, 64.0)

            def on_pong(message) -> None:
                left[0] -= 1
                if left[0] > 0:
                    a.send(b, "ping", message.payload, 64.0)
                else:
                    chain.sim.stop()

            b.register_handler("ping", on_ping)
            a.register_handler("pong", on_pong)
            a.send(b, "ping", payload, 64.0)
            chain.sim.run()
            if left[0] != 0:
                raise RuntimeError("ping-pong driver did not finish")

        return self.per_op_us(run, ops=2 * exchanges)

    # ------------------------------------------------------------------
    # numerics
    # ------------------------------------------------------------------
    def numerics_newton_us(self, batch: int, *, dt: float, c: float) -> float:
        """``newton_batched_2x2`` on one implicit-Euler Brusselator step."""
        from repro.numerics.newton import newton_batched_2x2

        u_prev = np.linspace(0.9, 1.1, batch)
        v_prev = np.linspace(2.9, 3.1, batch)

        def f(u, v, idx=None, up=u_prev, vp=v_prev):
            if idx is not None:
                up, vp = up[idx], vp[idx]
            u_sq = u * u
            f1 = u - up - dt * (1.0 + u_sq * v - 4.0 * u - 2.0 * c * (u - 1.0))
            f2 = v - vp - dt * (3.0 * u - u_sq * v - 2.0 * c * (v - 3.0))
            j11 = 1.0 - dt * (2.0 * u * v - 4.0 - 2.0 * c)
            j12 = -dt * u_sq
            j21 = -dt * (3.0 - 2.0 * u * v)
            j22 = 1.0 + dt * (u_sq + 2.0 * c)
            return f1, f2, j11, j12, j21, j22

        f.newton_compactable = True

        def run() -> None:
            result = newton_batched_2x2(f, u_prev, v_prev)
            if not result.all_converged:
                raise RuntimeError("newton driver did not converge")

        return self.per_op_us(run)

    def numerics_banded_solve_us(self, n: int) -> float:
        """``thomas_solve`` (the heat reference's banded solve) at size ``n``."""
        from repro.numerics.banded import thomas_solve

        lower = np.full(n, -0.3)
        upper = np.full(n, -0.3)
        diag = np.full(n, 1.6)
        rhs = np.sin(np.linspace(0.0, 3.0, n))
        return self.per_op_us(lambda: thomas_solve(lower, diag, upper, rhs))

    def numerics_ragged_reduce_us(self, n_ranks: int, per_rank: int) -> float:
        """One ``ChainSegments.max`` + ``sum`` pair (a lockstep round's reduction)."""
        from repro.numerics.ragged import ChainSegments

        blocks = [(r * per_rank, (r + 1) * per_rank) for r in range(n_ranks)]
        segments = ChainSegments(blocks, n_ranks * per_rank)
        values = np.linspace(0.0, 1.0, n_ranks * per_rank)

        def run() -> None:
            segments.max(values)
            segments.sum(values)

        return self.per_op_us(run)

    # ------------------------------------------------------------------
    # guard / integrity
    # ------------------------------------------------------------------
    def integrity_checksum_us(self, scenario: Any) -> float:
        """``payload_checksum`` of one halo of the scenario's problem."""
        from repro.integrity import payload_checksum

        problem = scenario.problem()
        state = problem.initial_state(0, problem.n_components // scenario.n_procs)
        halo = problem.halo_out(state, "right")
        return self.per_op_us(lambda: payload_checksum(halo))

    def guard_overhead(self, scenario: Any) -> float:
        """Same AIAC+LB run with an ``InvariantMonitor`` attached / without."""
        from repro.guard import InvariantMonitor

        guarded = _balanced_run(
            scenario, guard=lambda: InvariantMonitor(scenario.guard_config())
        )
        return self.best_of(guarded) / self.best_of(_balanced_run(scenario))

    def integrity_overhead(self, scenario: Any) -> float:
        """Detect-arm ``none`` schedule (resilient transport on, nothing to
        corrupt) over the same run with no injector at all."""
        from repro.faults import FaultInjector

        armed = _balanced_run(
            scenario,
            injector=lambda: FaultInjector(scenario.schedule("none", detect=True)),
        )
        return self.best_of(armed) / self.best_of(_balanced_run(scenario))

    # ------------------------------------------------------------------
    # obs
    # ------------------------------------------------------------------
    def obs_overheads(self, scenario: Any, p: int, scratch: str) -> dict[str, float]:
        """Tracing, profiling and export cost on one balanced Figure 5 run."""
        from repro.core.lb import run_balanced_aiac
        from repro.obs import MetricsRegistry, SimProfiler
        from repro.obs.export import write_chrome_trace
        from repro.obs.harness import collect_result_metrics

        kept: list[Any] = []

        def run(trace: bool, profiled: bool) -> Callable[[], None]:
            def call() -> None:
                kept[:] = [
                    run_balanced_aiac(
                        scenario.problem(),
                        scenario.platform(p),
                        scenario.solver_config(trace=trace),
                        scenario.lb_config(),
                        profiler=SimProfiler() if profiled else None,
                    )
                ]

            return call

        plain = self.best_of(run(False, False))
        profiled = self.best_of(run(False, True))
        traced = self.best_of(run(True, False))
        result = kept[0]

        root = tempfile.mkdtemp(prefix="obs-", dir=scratch)

        def export() -> None:
            collect_result_metrics(MetricsRegistry(), result, run="driver")
            write_chrome_trace(os.path.join(root, "trace.json"), result.tracer)

        try:
            export_s = self.best_of(export)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return {
            "obs.trace_overhead": traced / plain,
            "obs.profiler_overhead": profiled / plain,
            "obs.export_s": export_s,
        }

    # ------------------------------------------------------------------
    # exec
    # ------------------------------------------------------------------
    def exec_map_overhead_us(self, n_tasks: int = 200) -> float:
        """Serial ``SweepEngine.map`` of no-op tasks, per task."""
        from repro.exec import SweepEngine, Task

        tasks = [
            Task(fn=_noop_task, args=(i,), key={"noop": i}, label=f"noop/{i}")
            for i in range(n_tasks)
        ]
        return self.per_op_us(lambda: SweepEngine().map(tasks), ops=n_tasks)

    def exec_costs(self, scratch: str) -> dict[str, float]:
        """Digest, cache put/get and pool round-trip cost of one task."""
        from repro.analysis.perf import stable_digest
        from repro.exec import RunCache, SweepEngine, Task
        from repro.workloads import Figure5Scenario

        key = {
            "experiment": "figure5",
            "scenario": asdict(Figure5Scenario.tiny()),
            "p": 8,
            "version": "balanced",
        }
        payload = {"time": 123.456, "migrations": 17}
        root = tempfile.mkdtemp(prefix="cache-", dir=scratch)
        try:
            cache = RunCache(root)
            digest = cache.digest_for(key)
            out = {
                "exec.digest_us": self.per_op_us(lambda: stable_digest(key)),
                "exec.cache_put_us": self.per_op_us(lambda: cache.put(digest, key, payload)),
                "exec.cache_get_us": self.per_op_us(lambda: cache.get(digest)),
                "exec.map_overhead_us": self.exec_map_overhead_us(),
            }
        finally:
            shutil.rmtree(root, ignore_errors=True)
        # SweepEngine(jobs=1) never starts a pool, so the smallest pool that
        # exists is two workers; one task in flight keeps one of them idle.
        with SweepEngine(jobs=2, min_pool_tasks=1) as engine:
            task = [Task(fn=_noop_task, args=(0,), key=None, label="noop")]
            engine.map(task)  # starts the pool
            out["exec.pool_roundtrip_us"] = self.per_op_us(lambda: engine.map(task))
        return out

    # ------------------------------------------------------------------
    # serve
    # ------------------------------------------------------------------
    def serve_wal_append_us(self, scratch: str) -> float:
        """One durable (fsynced) ``JobWAL`` state append."""
        from repro.serve import JobWAL

        root = tempfile.mkdtemp(prefix="wal-", dir=scratch)
        wal = JobWAL(os.path.join(root, "wal.jsonl"), durable=True)
        try:
            return self.per_op_us(
                lambda: wal.state("j000001", "running", attempts=1)
            )
        finally:
            wal.close()
            shutil.rmtree(root, ignore_errors=True)
