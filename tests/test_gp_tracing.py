"""Each public GP entry point runs once per call, never nested.

Profilers and the benchmark tracer wrap ``fit``/``adopt_fit``/
``update``/``adopt_update`` on ``TransferGP``, ``MultiSourceTransferGP``
and ``GPRegressor`` from outside.  The three classes are siblings over
one private implementation and no entry point calls another, so every
call is counted exactly once whatever the wrapping order.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.core import PoolOracle, PPATuner, PPATunerConfig
from repro.gp import GPRegressor, MultiSourceTransferGP, TransferGP

ENTRY_POINTS = ("fit", "adopt_fit", "update", "adopt_update")


@pytest.fixture()
def gp_calls(monkeypatch):
    """Count wrapped GP calls as ``(class, method, nesting depth)``."""
    calls: list[tuple[str, str, int]] = []
    depth = [0]

    def wrap(cls, name):
        original = getattr(cls, name)

        @functools.wraps(original)
        def counted(self, *args, **kwargs):
            calls.append((cls.__name__, name, depth[0]))
            depth[0] += 1
            try:
                return original(self, *args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(cls, name, counted)

    # The benchmark tracer's wrapping order.
    for cls in (TransferGP, MultiSourceTransferGP, GPRegressor):
        for name in ENTRY_POINTS:
            wrap(cls, name)
    return calls


def _count(calls, cls, *names):
    return sum(1 for c, n, _ in calls if c == cls and n in names)


@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize(
    "n_archives,cls", [(1, "TransferGP"), (2, "MultiSourceTransferGP")]
)
def test_transfer_tune_counts_each_call_once(
    gp_calls, synthetic_pool, n_archives, cls, shared
):
    X, Y, Xs, Ys = synthetic_pool
    half = len(Xs) // 2
    sources = [(Xs, Ys)] if n_archives == 1 else [
        (Xs[:half], Ys[:half]), (Xs[half:], Ys[half:])
    ]
    # Without re-optimization the per-metric signatures stay equal, so
    # the shared-factor path (adopt_fit / adopt_update) runs.
    cfg = PPATunerConfig(max_iterations=6, seed=0)
    if shared:
        cfg = PPATunerConfig(max_iterations=6, seed=0, reopt_every=0)
    tuner = PPATuner(cfg)
    tuner.tune(X, PoolOracle(Y), sources=sources)
    stats = tuner.calibration_.stats

    assert all(depth == 0 for _, _, depth in gp_calls)
    assert {c for c, _, _ in gp_calls} == {cls}
    assert _count(gp_calls, cls, "fit", "adopt_fit") == stats.n_full_fits
    assert _count(gp_calls, cls, "update", "adopt_update") == (
        stats.n_incremental
    )
    assert (stats.n_shared_fits + stats.n_shared_updates > 0) == shared
    assert (stats.n_reopts > 0) != shared
    assert _count(gp_calls, cls, "adopt_fit") == stats.n_shared_fits
    assert _count(gp_calls, cls, "adopt_update") == stats.n_shared_updates


def test_gp_regressor_fit_and_update_count_once(gp_calls):
    rng = np.random.default_rng(0)
    model = GPRegressor(seed=0).fit(
        rng.uniform(size=(8, 2)), rng.normal(size=8)
    )
    model.update(rng.uniform(size=(2, 2)), rng.normal(size=2))
    assert gp_calls == [
        ("GPRegressor", "fit", 0), ("GPRegressor", "update", 0)
    ]
