"""Smoke-size tests of the benchmark's own machinery.

Run from the checkout root::

    python3 -m pytest -q perfbench/test_perfbench.py

They cover the tracer's self-time arithmetic and reversible wrapping,
the correctness checks, the refusal to run under variables that change
the program, and ``BENCHMARK.json`` agreeing with the code.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from envinfo import REFUSED_VARS, refused_vars  # noqa: E402
from tracer import Span, Tracer, layer_stats, self_times  # noqa: E402


def _span(i, name, start, end, parent=-1):
    return Span(i, name, start, end, parent, 0, "main", {})


# ----------------------------------------------------------------------
# tracer


def test_self_time_subtracts_children():
    spans = [
        _span(0, "a", 0.0, 10.0),
        _span(1, "b", 1.0, 4.0, parent=0),
        _span(2, "c", 5.0, 6.0, parent=0),
        _span(3, "d", 2.0, 3.0, parent=1),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])
    stats = layer_stats(spans)
    assert stats["a"]["self_s"] == pytest.approx(6.0)
    assert stats["b"]["total_s"] == pytest.approx(3.0)
    assert sum(r["self_s"] for r in stats.values()) == pytest.approx(10.0)


def test_self_time_merges_overlapping_and_clips_children():
    spans = [
        _span(0, "client", 0.0, 10.0),
        _span(1, "handler", 2.0, 6.0, parent=0),
        _span(2, "handler", 4.0, 8.0, parent=0),   # overlaps span 1
        _span(3, "late", 9.0, 12.0, parent=0),     # runs past the parent
    ]
    # Children cover [2, 8] and [9, 10]: 7 of the parent's 10 seconds.
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_open_spans_are_ignored_by_layer_stats():
    spans = [_span(0, "a", 0.0, 1.0), _span(1, "b", 0.5, float("nan"))]
    assert set(layer_stats(spans)) == {"a"}


class _Base:
    def work(self, x):
        return x + 1


class _Child(_Base):
    pass


def test_wrap_records_nested_spans_and_restores():
    tracer = Tracer()
    original = _Base.work
    tracer.wrap(_Base, "work", "base.work")
    tracer.wrap(_Child, "work", "child.work")
    assert _Child().work(1) == 2
    tracer.restore()
    assert _Base.work is original
    assert "work" not in vars(_Child)
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("child.work", -1), ("base.work", 0)]
    assert all(s.end >= s.start for s in tracer.spans)


def test_wrap_name_callable_and_after_hook():
    tracer = Tracer()
    seen = {}

    def after(span, result, obj, x):
        seen["result"] = result
        span.attrs["x"] = x

    tracer.wrap(_Base, "work", lambda obj, x: f"work.{x}", after=after)
    try:
        _Base().work(3)
    finally:
        tracer.restore()
    assert tracer.spans[0].name == "work.3"
    assert tracer.spans[0].attrs == {"x": 3}
    assert seen["result"] == 4


def test_handler_thread_span_attaches_to_open_remote_request():
    tracer = Tracer()

    class Server:
        def handle(self):
            return None

    class Client:
        def request(self):
            t = threading.Thread(target=Server().handle)
            t.start()
            t.join(timeout=5)
            assert not t.is_alive()

    tracer.wrap(Server, "handle", "handler")
    tracer.wrap(Client, "request", "client", remote=True)
    try:
        Client().request()
        Server().handle()  # no request open: a root span
    finally:
        tracer.restore()
    by_name = [(s.name, s.parent) for s in tracer.spans]
    assert by_name == [("client", -1), ("handler", 0), ("handler", -1)]


def test_write_emits_header_then_spans(tmp_path):
    tracer = Tracer()
    tracer.close(tracer.open("x"))
    path = tmp_path / "spans.jsonl"
    tracer.write(path, header={"env": {"nproc": 1}})
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[0] == {"env": {"nproc": 1}}
    assert lines[1]["name"] == "x" and lines[1]["parent"] == -1


# ----------------------------------------------------------------------
# correctness checks


def _result(indices, points, **kw):
    from repro.core.result import TuningResult

    return TuningResult(
        pareto_indices=np.asarray(indices),
        pareto_points=np.asarray(points, dtype=float),
        n_evaluations=kw.pop("n_evaluations", 5),
        n_iterations=kw.pop("n_iterations", 3),
        **kw,
    )


Y = np.array([[1.0, 4.0], [2.0, 2.0], [4.0, 1.0], [3.0, 3.0]])


def test_front_check_accepts_golden_front():
    result = _result([0, 1, 2], Y[[0, 1, 2]])
    assert checks.front_problems(result, Y, "t") == []


def test_front_check_rejects_dominated_point():
    problems = checks.front_problems(_result([1, 3], Y[[1, 3]]), Y, "t")
    assert any("dominated" in p for p in problems)


def test_front_check_rejects_rows_that_are_not_golden():
    points = Y[[0, 2]].copy()
    points[1, 0] -= 0.5
    problems = checks.front_problems(_result([0, 2], points), Y, "t")
    assert any("golden table" in p for p in problems)


def test_front_check_rejects_empty_front():
    problems = checks.front_problems(_result([], np.empty((0, 2))), Y, "t")
    assert problems == ["t: empty reported front"]


def test_quality_uses_paper_metrics():
    q = checks.quality(_result([0, 1, 2], Y[[0, 1, 2]]), Y)
    assert q["hv_error"] == pytest.approx(0.0)
    assert q["adrs"] == pytest.approx(0.0)
    assert q["tool_runs"] == 5
    worse = checks.quality(_result([3], Y[[3]]), Y)
    assert worse["hv_error"] > 0 and worse["adrs"] > 0


def test_identity_check_compares_every_field():
    a = _result([0, 1], Y[[0, 1]], evaluated_indices=np.array([0, 1, 3]),
                stop_reason="all_decided")
    same = _result([0, 1], Y[[0, 1]], evaluated_indices=np.array([0, 1, 3]),
                   stop_reason="all_decided")
    assert checks.identity_problems(a, same, "s") == []
    other = _result([0, 2], Y[[0, 2]], evaluated_indices=np.array([0, 1]),
                    stop_reason="max_iterations")
    problems = checks.identity_problems(a, other, "s")
    assert len(problems) == 3


def test_finite_check_flags_nan_and_empty_runs():
    class Outcome:
        hv_error = float("nan")
        adrs = 0.1
        runs = 0

    problems = checks.finite_problems(Outcome(), "cell")
    assert len(problems) == 2


# ----------------------------------------------------------------------
# run order: checks after the measured units, outside the traced region


class _FakeWorkload:
    """Records what ran when; unit 1 raises."""

    name = "fake"
    units = 3
    workers = 1

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.events = []
        self.attempted = self.failed = 0

    def setup(self):
        return [0.5, 0.25, 0.75]

    def prepare(self):
        pass

    def run_unit(self, k):
        self.events.append(("run", k))
        if k == 1:
            raise RuntimeError("unit broke")
        return run_unit_result(k)

    def check(self, unit):
        traced = bool(self.tracer and self.tracer._patches)
        self.events.append(("check", unit.info["k"], traced))
        return [], {"hv_error": 0.25, "adrs": 0.5, "tool_runs": 10}

    def extra_rss_mb(self):
        self.events.append(("rss",))
        return 0.0


def run_unit_result(k):
    from types import SimpleNamespace

    return SimpleNamespace(wall_s=1.0 + k, result=None,
                           info={"k": k, "tool_runs_total": 12})


def _args():
    from types import SimpleNamespace

    return SimpleNamespace(seed=1, seconds=1.0)


def test_untraced_checks_after_units_and_memory_reading(capsys):
    wl = _FakeWorkload()
    outcome = run.untraced(wl, _args())
    assert wl.events == [("run", 0), ("run", 1), ("run", 2), ("rss",),
                         ("check", 0, False), ("check", 2, False)]
    assert outcome["correct"] is False  # unit 1 raised
    assert "unit 1: RuntimeError: unit broke" in capsys.readouterr().out
    metrics = outcome["metrics"]
    assert metrics["wall_s"]["value"] == pytest.approx(2.0)
    assert metrics["setup_s"]["value"] == pytest.approx(0.5)
    assert metrics["hv_ratio"]["value"] == pytest.approx(0.75)


def test_traced_run_checks_outside_the_traced_region(monkeypatch, capsys):
    tracer = Tracer()
    wl = _FakeWorkload(tracer)

    def install(tracer_, state):
        tracer_.wrap(_Base, "work", "base.work")

    monkeypatch.setattr(layers, "install", install)
    monkeypatch.setattr(layers, "per_layer",
                        lambda *a: {"gp.fit_opt_s": 1.0})
    outcome = run.traced(wl, _args(), tracer)
    assert wl.events == [("run", 0), ("run", 0),
                         ("check", 0, False), ("check", 0, False)]
    assert outcome["correct"] is True
    assert outcome["metrics"] == {"gp.fit_opt_s": {"value": 1.0,
                                                   "unit": "s"}}


# ----------------------------------------------------------------------
# refusal and the contract


@pytest.mark.parametrize("var", REFUSED_VARS)
def test_refuses_program_changing_variables(var, monkeypatch, capsys):
    monkeypatch.setenv(var, "1")
    assert refused_vars({var: "1"}) == [var]
    code = run.main(["--workload", "matrix_s1", "--seed", "1"])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert var in out.err


def test_fails_without_program_source(tmp_path):
    """A tree holding only the benchmark exits non-zero, no result."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "matrix_s1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        layers.PER_LAYER_UNITS
    assert set(layers.LAYER_MOVES) <= set(layers.PER_LAYER_UNITS)
