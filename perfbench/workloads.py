"""The benchmark's workloads: generated inputs, units of work, checks.

Every workload builds its golden tables cold into a private cache
(set-up), then runs units of work.  Unit ``k`` of a run with seed ``s``
draws its inputs from ``SeedSequence([s, k])``, so the same seed always
gives the same inputs.  A unit returns its wall-clock time and raw
result; :meth:`check` verifies the result outside the timed region.

Import this module only after the program's cache variables point at
private directories (``run.py`` does so).
"""

from __future__ import annotations

import os
import re
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from repro.bench import OBJECTIVE_SPACES
from repro.bench import generate as bench_generate
from repro.core import PoolOracle, PPATuner, PPATunerConfig
from repro.service import RemoteTuner, ServiceClient, TuningServiceHTTP

#: Served transfer tunes stop at 30 iterations (about 14 s each).  With
#: the source rows the GP work outweighs the durable snapshot per
#: request, whose fsync latency drifts with the host's disk: cold-start
#: served tunes were ~85% snapshot writes and their run medians swung
#: by a third.
SERVE_CONFIG = {"max_iterations": 30, "q": 1}
#: Rows of the source table the served tunes transfer from.
N_SOURCE = 200
OBJECTIVES = OBJECTIVE_SPACES["power-delay"]


@dataclass
class Context:
    """Per-invocation settings shared by the workloads.

    Attributes:
        root: Checkout root (holds ``src/``).
        work: Private scratch directory, removed when the run ends.
        seed: Workload seed.
        traced: Whether this is the traced (per-layer) run.
        env: Environment for subprocesses of the program.
    """

    root: Path
    work: Path
    seed: int
    traced: bool
    env: dict = field(default_factory=dict)
    _dirs: int = 0

    def fresh_dir(self, prefix: str) -> Path:
        """A new empty directory under :attr:`work`."""
        self._dirs += 1
        path = self.work / f"{prefix}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def use_cache(self, path: Path) -> None:
        """Point this process and its children at a benchmark cache."""
        os.environ["PPATUNER_CACHE"] = str(path)
        self.env["PPATUNER_CACHE"] = str(path)


@dataclass
class UnitRun:
    """One timed unit of work."""

    wall_s: float
    result: object
    info: dict = field(default_factory=dict)


def unit_rng(seed: int, k: int) -> np.random.Generator:
    """Input generator of unit ``k`` of a run with seed ``seed``."""
    return np.random.default_rng(np.random.SeedSequence([seed, k]))


class CountingOracle(PoolOracle):
    """Pool oracle that also counts every call, verification included.

    ``n_evaluations`` stays the paper's distinct-run count; ``calls``
    is the full tool cost.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.calls = 0

    def evaluate(self, index: int) -> np.ndarray:
        self.calls += 1
        return super().evaluate(index)


@contextmanager
def counting_pool_oracles():
    """Make every ``PoolOracle`` the runner's cells build count calls.

    The cells look ``PoolOracle`` up on :mod:`repro.core` when they
    build their oracle, so swapping it there for :class:`CountingOracle`
    counts every cell's tool calls.  Yields the list of oracles built.
    """
    import repro.core as core

    made: list[CountingOracle] = []

    class _Registered(CountingOracle):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            made.append(self)

    original = core.PoolOracle
    core.PoolOracle = _Registered
    try:
        yield made
    finally:
        core.PoolOracle = original


class CountingClient(ServiceClient):
    """Service client that counts requests and failures.

    Ask and tell round trips are also timed, for the printed request
    percentiles.
    """

    def __init__(self, base_url: str) -> None:
        super().__init__(base_url)
        self.round_trips_ms: list[float] = []
        self.requests = 0
        self.failed = 0

    def _counted(self, call, *args, timed: bool = False, **kwargs):
        self.requests += 1
        start = time.perf_counter()
        try:
            return call(*args, **kwargs)
        except Exception:
            self.failed += 1
            raise
        finally:
            if timed:
                self.round_trips_ms.append(
                    (time.perf_counter() - start) * 1e3
                )

    def create_session(self, *args, **kwargs):
        return self._counted(super().create_session, *args, **kwargs)

    def ask(self, *args, **kwargs):
        return self._counted(super().ask, *args, timed=True, **kwargs)

    def tell(self, *args, **kwargs):
        return self._counted(super().tell, *args, timed=True, **kwargs)

    def tell_batch(self, *args, **kwargs):
        return self._counted(super().tell_batch, *args, timed=True,
                             **kwargs)

    def result(self, *args, **kwargs):
        return self._counted(super().result, *args, **kwargs)


#: Cold build of one table in a fresh process (``argv``: name, pool
#: size or ``-``).  The clock starts once the imports are done, so the
#: build, not interpreter start-up, is what ``setup_s`` times: start-up
#: swings twice as much with host load as the build does.
_BUILD_TABLE = """\
import sys, time
from repro.bench.generate import generate_benchmark
points = None if sys.argv[2] == "-" else int(sys.argv[2])
start = time.perf_counter()
generate_benchmark(sys.argv[1], n_points=points)
print(time.perf_counter() - start)
"""


def build_tables(
    ctx: Context, tables: tuple[tuple[str, int | None], ...]
) -> float:
    """Cold-build golden tables into the current cache; seconds taken.

    Untraced runs build each table in a fresh process, so no flow built
    earlier in this process is reused; traced runs build in-process so
    the ``repro.bench`` spans are recorded.
    """
    total = 0.0
    for name, points in tables:
        if ctx.traced:
            start = time.perf_counter()
            # Looked up on the module so the traced wrapper is used.
            bench_generate.generate_benchmark(name, n_points=points)
            total += time.perf_counter() - start
            continue
        done = subprocess.run(
            [sys.executable, "-c", _BUILD_TABLE, name,
             "-" if points is None else str(points)],
            env=ctx.env, cwd=ctx.root, check=True, timeout=170,
            capture_output=True, text=True,
        )
        total += float(done.stdout.split()[-1])
    return total


class Workload:
    """Base: set-up repeats, counters and the hooks the runner calls."""

    name = ""
    #: ``(benchmark, n_points)`` tables the workload builds.
    tables: tuple[tuple[str, int | None], ...] = ()
    #: Cold set-ups per untraced run; their median is ``setup_s``.
    setup_repeats = 3
    #: Units every run makes; wall_s is their median.
    units = 2
    #: Worker processes the workload fans out to (1 = inline).
    workers = 1

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.attempted = 0
        self.failed = 0

    def setup(self) -> list[float]:
        """Cold set-ups; returns their times.

        Each is the table builds plus the start of the services; the
        services of the last set-up stay up for the units.
        """
        times = []
        repeats = 1 if self.ctx.traced else self.setup_repeats
        for r in range(repeats):
            self.ctx.use_cache(self.ctx.fresh_dir("cache"))
            built = build_tables(self.ctx, self.tables)
            start = time.perf_counter()
            self.start_services(last=r == repeats - 1)
            times.append(built + time.perf_counter() - start)
        return times

    def start_services(self, last: bool) -> None:
        """Start long-lived services (part of set-up)."""

    def prepare(self) -> None:
        """Load inputs from the built cache (not timed)."""

    def run_unit(self, k: int) -> UnitRun:
        raise NotImplementedError

    def check(self, unit: UnitRun) -> tuple[list[str], dict]:
        """Correctness problems and quality figures of one unit."""
        raise NotImplementedError

    def extra_rss_mb(self) -> float:
        """Peak resident memory of helper processes, in MB."""
        return 0.0

    def teardown(self) -> None:
        """Stop everything the workload started."""


class _ServerProcess:
    """``repro serve`` in a subprocess on an ephemeral port."""

    def __init__(self, ctx: Context, store: Path) -> None:
        self.log = store.parent / f"{store.name}.log"
        with open(self.log, "wb") as out:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--host",
                 "127.0.0.1", "--port", "0", "--store", str(store)],
                env=ctx.env, cwd=ctx.root, stdout=out,
                stderr=subprocess.STDOUT,
            )
        deadline = time.monotonic() + 60
        while True:
            found = re.search(
                r"tuning service on (http://\S+)",
                self.log.read_text(errors="replace"),
            )
            if found:
                self.url = found.group(1)
                return
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(
                    f"repro serve did not start: "
                    f"{self.log.read_text(errors='replace')[-2000:]}"
                )
            time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        """Server high-water resident set (``VmHWM``), in MB."""
        try:
            text = Path(f"/proc/{self.proc.pid}/status").read_text()
        except OSError:
            return 0.0
        found = re.search(r"VmHWM:\s+(\d+)\s+kB", text)
        return int(found.group(1)) / 1024 if found else 0.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)


class _ServerInProcess:
    """``TuningServiceHTTP`` on a thread of this process (traced run)."""

    def __init__(self, ctx: Context, store: Path) -> None:
        self.http = TuningServiceHTTP(root=store, port=0).start()
        self.url = self.http.url

    def peak_rss_mb(self) -> float:
        return 0.0  # counted in this process's own peak

    def stop(self) -> None:
        self.http.shutdown()


class ServeTransfer(Workload):
    """Transfer tune on target2 driven through the tuning service."""

    name = "serve_transfer"
    tables = (("target2", None), ("source2", N_SOURCE))
    units = 3
    #: Units checked bit for bit against an in-process tune of the same
    #: inputs; each reference tune costs as much as the served GP work.
    reference_units = 1

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.server = None
        self.server_rss_mb = 0.0

    def start_services(self, last: bool) -> None:
        store = self.ctx.fresh_dir("store")
        kind = _ServerInProcess if self.ctx.traced else _ServerProcess
        server = kind(self.ctx, store)
        if last:
            self.server = server
        else:
            server.stop()

    def prepare(self) -> None:
        self.target = bench_generate.generate_benchmark("target2")
        self.Y = self.target.objectives(OBJECTIVES)
        source = bench_generate.generate_benchmark("source2", N_SOURCE)
        self.sources = [(source.X, source.objectives(OBJECTIVES))]

    def run_unit(self, k: int) -> UnitRun:
        cfg = PPATunerConfig(
            seed=int(unit_rng(self.ctx.seed, k).integers(2**31)),
            **SERVE_CONFIG,
        )
        client = CountingClient(self.server.url)
        oracle = CountingOracle(self.Y)
        start = time.perf_counter()
        try:
            result = RemoteTuner(client, config=cfg).tune(
                self.target.X, oracle, sources=self.sources
            )
        finally:
            self.attempted += client.requests
            self.failed += client.failed
        wall = time.perf_counter() - start
        return UnitRun(wall, result, {
            "tool_runs_total": oracle.calls,
            "kept": len(result.pareto_indices),
            "round_trips_ms": client.round_trips_ms,
            "config": cfg,
            "reference": k < self.reference_units,
        })

    def check(self, unit: UnitRun) -> tuple[list[str], dict]:
        problems = checks.front_problems(unit.result, self.Y, self.name)
        if unit.info["reference"]:
            local = PPATuner(unit.info["config"]).tune(
                self.target.X, PoolOracle(self.Y), sources=self.sources
            )
            problems += checks.identity_problems(
                unit.result, local, self.name
            )
        return problems, checks.quality(unit.result, self.Y)

    def extra_rss_mb(self) -> float:
        if self.server is not None:
            self.server_rss_mb = max(
                self.server_rss_mb, self.server.peak_rss_mb()
            )
        return self.server_rss_mb

    def teardown(self) -> None:
        if self.server is not None:
            self.extra_rss_mb()
            self.server.stop()
            self.server = None


class MatrixS1(Workload):
    """Reduced Scenario One through the experiment runner, inline."""

    name = "matrix_s1"
    tables = (("source1", 150), ("target1", 150))
    N_POINTS = 150
    SCALE = 80

    def run_unit(self, k: int) -> UnitRun:
        from repro.experiments import ALL_METHODS, scenario_one
        from repro.runner import ExperimentRunner

        seed = int(unit_rng(self.ctx.seed, k).integers(2**31))
        n_cells = len(ALL_METHODS) * len(OBJECTIVE_SPACES)
        runner = ExperimentRunner(workers=self.workers, memo=None)
        self.attempted += n_cells
        with counting_pool_oracles() as oracles:
            start = time.perf_counter()
            try:
                result = scenario_one(
                    scale=self.SCALE, n_points=self.N_POINTS, seed=seed,
                    methods=ALL_METHODS, runner=runner,
                )
            except Exception:
                self.failed += n_cells
                raise
            wall = time.perf_counter() - start
        tele = [(r.spec.method, r.telemetry.wall_time) for r in runner.history]
        cell_s = sum(t for _, t in tele)
        ppa = sum(t for m, t in tele if m.startswith("PPATuner"))
        calibration: dict[str, int] = {}
        for r in runner.history:
            for key, n in r.telemetry.calibration.items():
                calibration[key] = calibration.get(key, 0) + n
        return UnitRun(wall, result, {
            "seed": seed,
            "tool_runs_total": sum(o.calls for o in oracles),
            "calibration": calibration,
            "kept": sum(
                len(o.result.pareto_indices) for o in result.outcomes
                if o.method.startswith("PPATuner") and o.result is not None
            ),
            "runner": {
                "cells": len(tele),
                "busy_frac": cell_s / (self.workers * wall),
                "ppatuner_frac": ppa / cell_s if cell_s else 0.0,
            },
        })

    def check(self, unit: UnitRun) -> tuple[list[str], dict]:
        from repro.runner import DatasetRef

        target = DatasetRef(
            "target1", n_points=self.N_POINTS, subsample=self.SCALE,
            subsample_seed=unit.info["seed"],
        ).resolve()
        problems = []
        failed_cells = 0
        for o in unit.result.outcomes:
            label = f"{self.name}[{o.method}/{o.objective_space}]"
            cell = checks.finite_problems(o, label)
            if o.result is not None:
                Y = target.objectives(OBJECTIVE_SPACES[o.objective_space])
                cell += checks.front_problems(o.result, Y, label)
            failed_cells += bool(cell)
            problems += cell
        unit.info["runner"]["failed_cells"] = failed_cells
        outcomes = unit.result.outcomes
        return problems, {
            "hv_error": statistics.mean(o.hv_error for o in outcomes),
            "adrs": statistics.mean(o.adrs for o in outcomes),
            "tool_runs": sum(int(o.runs) for o in outcomes),
        }


WORKLOADS = {w.name: w for w in (ServeTransfer, MatrixS1)}
