"""The repository benchmark: one command, every metric, checked outputs.

Run from the checkout root::

    python3 perfbench/run.py --workload matrix_s1 --seed 1 \\
        --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics (wall-clock per unit of
work, cold set-up, peak memory, front quality, tool runs) with no
tracing.  ``--trace 1`` runs one untraced and one traced unit on the
same inputs, wraps the program's public entry points from outside (see
``layers.py``), prints the per-layer table, writes the spans to
``.perfbench/spans-<workload>-seed<seed>.jsonl`` and reports the
per-layer metrics.  Either way every unit is checked after the measured
units ran, outside the timed and traced regions, and the last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Each workload runs a fixed number of units (``Workload.units``), so a
seed always measures the same work.  ``BENCHMARK.json``'s
``run_seconds`` is the measured length of the longer workload's units
(``matrix_s1``, about 48 s on a 2-core host; ``serve_transfer``'s take
about 40 s), and ``--seconds`` is only recorded.

The benchmark never sets BLAS or OpenMP thread counts; it records the
effective count.  It points ``PPATUNER_CACHE``, ``PPATUNER_RUN_CACHE``
and the service store at a private directory under ``.perfbench/``
that is removed at exit, and refuses to run while
``PPATUNER_FAULT_SEED``, ``PPATUNER_FULL`` or ``PPATUNER_TRACE_DIR`` is
set, since each changes the program under test.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from envinfo import environment, refused_vars  # noqa: E402
from tracer import Tracer, layer_stats, layer_table  # noqa: E402

WORKLOAD_NAMES = ("serve_transfer", "matrix_s1")
#: End-to-end metric -> unit (mirrors BENCHMARK.json).
END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "hv_ratio": "fraction", "tool_runs": "count",
}
OUT_DIR = ROOT / ".perfbench"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=48.0,
                   help="declared run length (recorded only: each "
                   "workload runs a fixed number of units)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _attempt(problems: list[str], label: str, call, *args):
    """``call(*args)``, or None once an exception is printed and recorded.

    A failing unit or check is a problem of the run; the run goes on.
    """
    try:
        return call(*args)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        problems.append(f"{label}: {type(exc).__name__}: {exc}")
        return None


def _check(wl, unit, k: int, problems: list[str]) -> dict | None:
    """Check unit ``k`` (outside every timed region); its quality."""
    checked = _attempt(problems, f"unit {k} check", wl.check, unit)
    if checked is None:
        return None
    found, quality = checked
    problems.extend(found)
    quality["tool_runs_total"] = unit.info["tool_runs_total"]
    return quality


def _print_quality(qualities: list[dict]) -> None:
    for key in ("hv_error", "adrs", "tool_runs", "tool_runs_total"):
        vals = [q[key] for q in qualities if key in q]
        if vals:
            shown = ", ".join(f"{v:.6g}" for v in vals)
            print(f"  {key:<16} {shown}")


def _verdict(problems: list[str], n_units: int) -> bool:
    correct = not problems and n_units > 0
    print(f"correctness: {'PASS' if correct else 'FAIL'}")
    for problem in problems:
        print(f"  - {problem}")
    return correct


def untraced(wl, args: argparse.Namespace) -> dict | None:
    """Measure the end-to-end metrics; None when no unit succeeded."""
    setup = wl.setup()
    wl.prepare()
    problems: list[str] = []
    ran = [(k, _attempt(problems, f"unit {k}", wl.run_unit, k))
           for k in range(wl.units)]
    # Read before the checks, whose reference runs are not the workload.
    peak = _peak_rss_mb() + wl.extra_rss_mb()
    units, qualities = [], []
    for k, unit in ran:
        quality = None if unit is None else _check(wl, unit, k, problems)
        if quality is not None:
            units.append(unit)
            qualities.append(quality)

    walls = [u.wall_s for u in units]
    print(f"workload {wl.name}: {len(units)} of {wl.units} unit(s) "
          f"checked, seed {args.seed}, {sum(walls):.4f} s measured "
          f"({args.seconds:g} s declared)")
    print(f"  wall_s           {', '.join(f'{w:.4f}' for w in walls)} s")
    print(f"  setup_s          {', '.join(f'{s:.4f}' for s in setup)} s "
          f"({len(setup)} cold set-up(s))")
    trips = [ms for u in units for ms in u.info.get("round_trips_ms", ())]
    if len(trips) > 1:
        cuts = statistics.quantiles(trips, n=100)
        print(f"  client round trips {len(trips)}: p50 {cuts[49]:.4f} ms, "
              f"p90 {cuts[89]:.4f} ms")
    print("quality per unit (repro.pareto):")
    _print_quality(qualities)
    correct = _verdict(problems, len(units))
    if not units:
        return None
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak,
        # Share of the golden front's hypervolume the reported fronts
        # reach (1 - the paper's HV error), and the paper's "Runs",
        # averaged over the units; both repeat exactly for a seed.
        "hv_ratio": statistics.mean(1 - q["hv_error"] for q in qualities),
        "tool_runs": statistics.mean(q["tool_runs"] for q in qualities),
    }
    print("end-to-end:")
    for name, value in metrics.items():
        print(f"  {name:<16} {value:.6g} {END_TO_END_UNITS[name]}"
              + (f"  (median of {len(walls)})" if name == "wall_s" else ""))
    return {
        "correct": correct and wl.failed == 0,
        "metrics": {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in metrics.items()
        },
    }


def traced(wl, args: argparse.Namespace, tracer: Tracer) -> dict | None:
    """One untraced and one traced unit on the same inputs."""
    import layers

    state: dict = {}
    tracer.unit = -1
    layers.install(tracer, state)
    try:
        wl.setup()
    finally:
        tracer.restore()
    setup_spans = list(tracer.spans)
    wl.prepare()

    problems: list[str] = []
    base = _attempt(problems, "unit 0 (untraced)", wl.run_unit, 0)
    tracer.unit = 0
    first = len(tracer.spans)
    layers.install(tracer, state)
    try:
        unit = _attempt(problems, "unit 0 (traced)", wl.run_unit, 0)
    finally:
        tracer.restore()
    unit_spans = tracer.spans[first:]
    quality = None
    if base is not None:
        _check(wl, base, 0, problems)
    if unit is not None:
        quality = _check(wl, unit, 0, problems)

    print(f"workload {wl.name}: traced run, seed {args.seed}")
    if wl.name == "serve_transfer":
        print("  note: both units host TuningServiceHTTP in-process so the "
              "handler, snapshot and store calls can be wrapped")
    correct = _verdict(problems, int(quality is not None))
    if quality is None or base is None:
        return None
    info = {
        **unit.info, "quality": quality,
        "wall_s": unit.wall_s, "untraced_wall_s": base.wall_s,
    }
    metrics = layers.per_layer(unit_spans, setup_spans, info, state)

    setup_wall = sum(s.end - s.start for s in setup_spans if s.parent < 0)
    print(f"set-up layers (of {setup_wall:.4f} s):")
    print(layer_table(layer_stats(setup_spans), setup_wall))
    print(f"unit layers (of wall {unit.wall_s:.4f} s, untraced "
          f"{base.wall_s:.4f} s):")
    print(layer_table(layer_stats(unit_spans), unit.wall_s))
    print("per-layer metrics (-> the end-to-end metric each should move):")
    for name, value in metrics.items():
        moves = layers.LAYER_MOVES.get(name)
        print(f"  {name:<28} {value:.6g} {layers.PER_LAYER_UNITS[name]}"
              + (f"  -> {moves}" if moves else ""))

    return {
        "correct": correct and wl.failed == 0,
        "metrics": {
            name: {"value": value, "unit": layers.PER_LAYER_UNITS[name]}
            for name, value in metrics.items()
        },
    }


def _run(args: argparse.Namespace, found: dict, work: Path) -> int:
    src = str(ROOT / "src")
    env = dict(found)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, found.get("PYTHONPATH")) if p
    )
    for var, sub in (("PPATUNER_CACHE", "cache-0"),
                     ("PPATUNER_RUN_CACHE", "runs")):
        path = work / sub
        path.mkdir()
        os.environ[var] = env[var] = str(path)
    sys.path.insert(0, src)
    import workloads

    ctx = workloads.Context(
        root=ROOT, work=work, seed=args.seed, traced=bool(args.trace),
        env=env,
    )
    wl = workloads.WORKLOADS[args.workload](ctx)
    tracer = Tracer()
    try:
        if args.trace:
            outcome = traced(wl, args, tracer)
        else:
            outcome = untraced(wl, args)
    finally:
        wl.teardown()
    # Read after the work loaded both BLAS libraries; the query never
    # changes their thread counts.
    env_record = environment(args.seed, wl.workers, found)
    print("env: " + json.dumps(env_record, sort_keys=True))
    if args.trace:
        path = OUT_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl"
        tracer.write(path, header={"env": env_record, "workload": wl.name})
        print(f"spans: {path.relative_to(ROOT)} ({len(tracer.spans)})")
    if outcome is None:
        print("perfbench: no unit of work completed", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": bool(outcome["correct"]),
        "attempted": int(wl.attempted),
        "failed": int(wl.failed),
        "metrics": outcome["metrics"],
    }))
    return 0


def _exit_on_sigterm(signum, frame) -> None:
    # Unwind through the finally blocks that stop helper processes.
    sys.exit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    found = dict(os.environ)
    refused = refused_vars(found)
    if refused:
        print(f"perfbench: refusing to run with {', '.join(refused)} set; "
              "each changes the program under test", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-",
                                 dir=OUT_DIR))
    try:
        return _run(args, found, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
