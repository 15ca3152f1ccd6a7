"""Which public entry points are traced, and the per-layer metrics.

:func:`install` wraps the public functions of ``repro.gp``,
``repro.core``, ``repro.bench``, ``repro.service`` (client, handler,
session snapshot, store) with :class:`~tracer.Tracer` spans.
:func:`per_layer` reduces the recorded spans of one traced unit — plus
the numbers a workload measured from outside (runner telemetry, client
request times) — to the metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import statistics

from tracer import Span, Tracer, layer_stats

#: Per-layer metric -> unit, in output order (mirrors BENCHMARK.json).
#: A layer that only some workloads exercise is reported as a count or
#: a share of the unit's wall time, never as a time that would read 0.0
#: on every run of the other workloads.
PER_LAYER_UNITS = {
    "gp.fit_opt_s": "s", "gp.fit_opt_calls": "count",
    "gp.fit_calls": "count",
    "gp.update_s": "s", "gp.update_calls": "count",
    "gp.update_fallback_frac": "fraction",
    "calibration.calibrate_s": "s", "calibration.calls": "count",
    "calibration.shared_frac": "fraction",
    "calibration.predict_s": "s", "calibration.predict_rows": "count",
    "decision.s": "s", "decision.calls": "count",
    "selection.s": "s", "selection.calls": "count",
    "regions.s": "s",
    "session.self_s": "s",
    "session.ask_ms_p50": "ms", "session.ask_ms_p90": "ms",
    "oracle.s": "s", "oracle.calls": "count",
    "verify.calls": "count", "verify.kept_frac": "fraction",
    "bench.generate_s": "s", "bench.flow_rows": "count",
    "runner.cells": "count", "runner.failed_cells": "count",
    "runner.busy_frac": "fraction", "runner.ppatuner_frac": "fraction",
    "service.requests": "count",
    "service.handler_frac": "fraction", "service.snapshot_frac": "fraction",
    "service.store_save_frac": "fraction", "service.store_saves": "count",
    "service.snapshot_bytes": "bytes", "service.http_frac": "fraction",
    "quality.hv_error": "fraction", "quality.adrs": "fraction",
    "quality.tool_runs": "count", "quality.tool_runs_total": "count",
    "trace.wall_s": "s", "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}

#: Which end-to-end metric, on which workloads, each layer should move.
LAYER_MOVES = {
    "gp.fit_opt_s": "wall_s on matrix_s1 (PPATuner cells), serve_transfer",
    "gp.update_s": "wall_s on serve_transfer, matrix_s1",
    "calibration.calibrate_s": "wall_s on serve_transfer, matrix_s1",
    "calibration.predict_s": "wall_s on serve_transfer, matrix_s1",
    "decision.s": "wall_s on serve_transfer, matrix_s1",
    "selection.s": "wall_s on both workloads",
    "regions.s": "wall_s on both workloads",
    "session.self_s": "wall_s on both workloads",
    "session.ask_ms_p50": "wall_s on both workloads",
    "oracle.s": "wall_s on both workloads",
    "verify.calls": "quality.tool_runs_total on both workloads",
    "bench.generate_s": "setup_s on both workloads",
    "runner.busy_frac": "wall_s on matrix_s1",
    "service.handler_frac": "wall_s on serve_transfer",
    "service.snapshot_frac": "wall_s on serve_transfer",
    "service.store_save_frac": "wall_s on serve_transfer",
    "service.http_frac": "wall_s on serve_transfer",
}


def install(tracer: Tracer, state: dict) -> None:
    """Wrap the program's public entry points.

    Args:
        tracer: Span recorder.
        state: Scratch dict the hooks fill (last session phase, the
            calibration engine seen, verification calls, ...).
    """
    import repro.bench.generate as gen
    import repro.core.session as session_mod
    from repro.core.calibration import CalibrationEngine
    from repro.core.oracle import PoolOracle
    from repro.core.session import TuningSession
    from repro.core.uncertainty import UncertaintyRegions
    from repro.gp import GPRegressor, MultiSourceTransferGP, TransferGP
    from repro.service.client import ServiceClient
    from repro.service.server import TuningService
    from repro.service.store import SessionStore

    def flow_rows(span: Span, result, design, configs, *a, **kw) -> None:
        span.attrs["rows"] = len(configs)

    tracer.wrap(gen, "generate_benchmark", "bench.generate")
    tracer.wrap(gen, "evaluate_configs_parallel", "bench.flow",
                after=flow_rows)

    def fit_name(model, *a, **kw) -> str:
        return "gp.fit_opt" if getattr(model, "optimize", False) else "gp.fit"

    def update_fallback(span: Span, result, model, *a, **kw) -> None:
        span.attrs["fallback"] = bool(
            getattr(model, "last_update_fallback", False)
        )

    for cls in (TransferGP, MultiSourceTransferGP, GPRegressor):
        tracer.wrap(cls, "fit", fit_name)
        tracer.wrap(cls, "adopt_fit", "gp.fit")
        tracer.wrap(cls, "update", "gp.update", after=update_fallback)
        tracer.wrap(cls, "adopt_update", "gp.update", after=update_fallback)

    def keep_engine(span: Span, result, engine, *a, **kw) -> None:
        state["engine"] = engine

    def predict_rows(span: Span, result, engine, indices, *a, **kw) -> None:
        span.attrs["rows"] = len(result[0])

    tracer.wrap(CalibrationEngine, "calibrate", "calibration.calibrate",
                after=keep_engine)
    tracer.wrap(CalibrationEngine, "predict", "calibration.predict",
                after=predict_rows)

    # The session binds these by name at import: wrap its references.
    tracer.wrap(session_mod, "apply_decision_rules", "decision")
    tracer.wrap(session_mod, "select_next", "selection")
    tracer.wrap(session_mod, "select_batch", "selection")
    tracer.wrap(session_mod, "prediction_rectangle", "regions")
    tracer.wrap(UncertaintyRegions, "intersect", "regions")

    def keep_phase(span: Span, result, session, *a, **kw) -> None:
        state["phase"] = session.phase

    tracer.wrap(TuningSession, "ask", "session.ask", after=keep_phase)
    tracer.wrap(TuningSession, "tell", "session.tell")

    def oracle_phase(span: Span, result, *a, **kw) -> None:
        span.attrs["verify"] = state.get("phase") == "verify"

    tracer.wrap(PoolOracle, "evaluate", "oracle", after=oracle_phase)

    # Service: client requests (remote parents), handlers, persistence.
    for name in ("create_session", "ask", "tell", "tell_batch", "result"):
        tracer.wrap(ServiceClient, name, f"service.client.{name}",
                    remote=True)
    for name in ("create_session", "ask", "tell", "tell_batch", "result"):
        tracer.wrap(TuningService, name, "service.handler")
    tracer.wrap(TuningSession, "snapshot", "service.snapshot")

    def saved_bytes(span: Span, path, *a, **kw) -> None:
        span.attrs["bytes"] = path.stat().st_size

    tracer.wrap(SessionStore, "save", "service.store_save",
                after=saved_bytes)


def _pct(values: list[float], q: int) -> float:
    """``q``-th percentile (nearest rank over 100 cut points)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100)[q - 1])


def per_layer(
    unit_spans: list[Span],
    setup_spans: list[Span],
    info: dict,
    state: dict,
) -> dict[str, float]:
    """Reduce one traced unit to the per-layer metrics.

    Args:
        unit_spans: Spans recorded while the traced unit ran.
        setup_spans: Spans recorded during set-up (table builds).
        info: Numbers the workload measured itself: ``quality``,
            ``tool_runs_total`` (counted oracle calls),
            ``kept`` (reported front size), ``runner`` (telemetry
            shares), ``calibration`` (summed
            ``CalibrationStats`` counters; default: the last engine
            traced), ``wall_s``/``untraced_wall_s``.
        state: The hook scratch dict of :func:`install`.
    """
    stats = layer_stats(unit_spans)

    def self_s(*names: str) -> float:
        return sum(stats.get(n, {}).get("self_s", 0.0) for n in names)

    def total_s(*names: str) -> float:
        return sum(stats.get(n, {}).get("total_s", 0.0) for n in names)

    def calls(*names: str) -> int:
        return int(sum(stats.get(n, {}).get("calls", 0) for n in names))

    closed = [s for s in unit_spans if s.end == s.end]
    updates = [s for s in closed if s.name == "gp.update"]
    oracle = [s for s in closed if s.name == "oracle"]
    verify_calls = sum(1 for s in oracle if s.attrs.get("verify"))
    saves = [s for s in closed if s.name == "service.store_save"]
    setup = layer_stats(setup_spans)
    flow_rows = sum(
        s.attrs.get("rows", 0) for s in setup_spans if s.name == "bench.flow"
    )

    cal = info.get("calibration")
    if cal is None and state.get("engine") is not None:
        cal = vars(state["engine"].stats)
    cal = cal or {}
    ops = cal.get("n_full_fits", 0) + cal.get("n_incremental", 0)
    shared = cal.get("n_shared_fits", 0) + cal.get("n_shared_updates", 0)

    client_s = total_s(*(
        f"service.client.{n}"
        for n in ("create_session", "ask", "tell", "tell_batch", "result")
    ))
    handler_s = total_s("service.handler")
    runner = info.get("runner", {})
    quality = info.get("quality", {})
    wall = info["wall_s"]
    asks = [
        (s.end - s.start) * 1e3 for s in closed if s.name == "session.ask"
    ]

    metrics = {
        "gp.fit_opt_s": self_s("gp.fit_opt"),
        "gp.fit_opt_calls": calls("gp.fit_opt"),
        "gp.fit_calls": calls("gp.fit"),
        "gp.update_s": self_s("gp.update"),
        "gp.update_calls": len(updates),
        "gp.update_fallback_frac": (
            sum(1 for s in updates if s.attrs.get("fallback"))
            / len(updates) if updates else 0.0
        ),
        "calibration.calibrate_s": self_s("calibration.calibrate"),
        "calibration.calls": calls("calibration.calibrate"),
        "calibration.shared_frac": shared / ops if ops else 0.0,
        "calibration.predict_s": self_s("calibration.predict"),
        "calibration.predict_rows": int(sum(
            s.attrs.get("rows", 0) for s in closed
            if s.name == "calibration.predict"
        )),
        "decision.s": self_s("decision"),
        "decision.calls": calls("decision"),
        "selection.s": self_s("selection"),
        "selection.calls": calls("selection"),
        "regions.s": self_s("regions"),
        "session.self_s": self_s("session.ask", "session.tell"),
        "session.ask_ms_p50": _pct(asks, 50),
        "session.ask_ms_p90": _pct(asks, 90),
        "oracle.s": self_s("oracle"),
        "oracle.calls": len(oracle),
        "verify.calls": verify_calls,
        "verify.kept_frac": (
            info.get("kept", 0) / verify_calls if verify_calls else 0.0
        ),
        "bench.generate_s": setup.get("bench.generate", {}).get(
            "total_s", 0.0
        ),
        "bench.flow_rows": int(flow_rows),
        "runner.cells": int(runner.get("cells", 0)),
        "runner.failed_cells": int(runner.get("failed_cells", 0)),
        "runner.busy_frac": runner.get("busy_frac", 0.0),
        "runner.ppatuner_frac": runner.get("ppatuner_frac", 0.0),
        "service.requests": calls(*(
            f"service.client.{n}"
            for n in ("create_session", "ask", "tell", "tell_batch", "result")
        )),
        "service.handler_frac": handler_s / wall,
        "service.snapshot_frac": total_s("service.snapshot") / wall,
        "service.store_save_frac": total_s("service.store_save") / wall,
        "service.store_saves": len(saves),
        "service.snapshot_bytes": (
            statistics.mean(s.attrs.get("bytes", 0) for s in saves)
            if saves else 0.0
        ),
        "service.http_frac": max(0.0, client_s - handler_s) / wall,
        "quality.hv_error": quality.get("hv_error", 0.0),
        "quality.adrs": quality.get("adrs", 0.0),
        "quality.tool_runs": quality.get("tool_runs", 0),
        "quality.tool_runs_total": info["tool_runs_total"],
        "trace.wall_s": wall,
        "trace.untraced_wall_s": info["untraced_wall_s"],
        "trace.overhead_s": wall - info["untraced_wall_s"],
    }
    assert list(metrics) == list(PER_LAYER_UNITS)
    return metrics
