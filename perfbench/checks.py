"""Correctness checks applied to every unit of work the benchmark runs.

Each check returns a list of human-readable problems; an empty list
means the output is correct.  Quality figures are computed with the
program's own :mod:`repro.pareto` functions.
"""

from __future__ import annotations

import math

import numpy as np


def front_problems(result, Y_golden: np.ndarray, label: str) -> list[str]:
    """A reported front must be mutually non-dominated and golden.

    Args:
        result: A ``TuningResult``.
        Y_golden: ``(n, m)`` golden objective table of the pool the
            result indexes.
        label: Prefix for the messages.
    """
    from repro.pareto import non_dominated_mask

    problems = []
    idx = np.asarray(result.pareto_indices, dtype=int)
    pts = np.atleast_2d(np.asarray(result.pareto_points, dtype=float))
    if len(idx) == 0:
        return [f"{label}: empty reported front"]
    if pts.shape != (len(idx), Y_golden.shape[1]):
        return [f"{label}: front shape {pts.shape} does not match "
                f"{len(idx)} indices x {Y_golden.shape[1]} objectives"]
    if idx.min() < 0 or idx.max() >= len(Y_golden):
        return [f"{label}: front index out of the pool"]
    mask = non_dominated_mask(pts)
    if not mask.all():
        problems.append(
            f"{label}: {int((~mask).sum())} dominated point(s) in the front"
        )
    mismatch = np.nonzero(~np.all(pts == Y_golden[idx], axis=1))[0]
    if len(mismatch):
        problems.append(
            f"{label}: {len(mismatch)} front row(s) differ from the golden "
            f"table (first at pool index {int(idx[mismatch[0]])})"
        )
    return problems


def quality(result, Y_golden: np.ndarray) -> dict[str, float]:
    """Paper metrics of one result against the golden front."""
    from repro.pareto import adrs, hypervolume_error, pareto_front

    golden = pareto_front(Y_golden)
    found = pareto_front(np.atleast_2d(result.pareto_points))
    return {
        "hv_error": float(hypervolume_error(found, golden)),
        "adrs": float(adrs(golden, found)),
        "tool_runs": int(result.n_evaluations),
    }


def identity_problems(remote, local, label: str) -> list[str]:
    """Remote and in-process results of the same inputs must be equal.

    Compares Pareto indices, evaluated indices, iteration history and
    stop reason bit for bit.
    """
    from repro.obs import records_equal

    problems = []
    for field in ("pareto_indices", "evaluated_indices"):
        a = np.asarray(getattr(remote, field))
        b = np.asarray(getattr(local, field))
        if a.shape != b.shape or not np.array_equal(a, b):
            problems.append(f"{label}: {field} differ from in-process run")
    if not records_equal(remote.history, local.history):
        problems.append(f"{label}: history differs from in-process run")
    if remote.stop_reason != local.stop_reason:
        problems.append(
            f"{label}: stop reason {remote.stop_reason!r} != in-process "
            f"{local.stop_reason!r}"
        )
    return problems


def finite_problems(outcome, label: str) -> list[str]:
    """A matrix cell's scored outcome must be finite and non-empty."""
    problems = []
    for field in ("hv_error", "adrs"):
        value = getattr(outcome, field)
        if not math.isfinite(value):
            problems.append(f"{label}: {field} is {value}")
    if not outcome.runs > 0:
        problems.append(f"{label}: {outcome.runs} tool runs")
    return problems
