"""The three GP constructors share one task-structured implementation.

Pins the contracts of :mod:`repro.gp.task_gp`:

- ``MultiSourceTransferGP`` on one archive *is* ``TransferGP``, and on no
  archives *is* ``GPRegressor`` — bit for bit: optimized
  hyperparameters, posterior mean and variance, and an incremental
  update;
- the analytic likelihood gradient matches finite differences for zero,
  one and two source tasks, under both kernels.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import approx_fprime

from repro.gp import (
    GPRegressor,
    Matern52Kernel,
    MultiSourceTransferGP,
    RBFKernel,
    TransferGP,
)


def _data(seed: int, d: int = 3):
    rng = np.random.default_rng(seed)
    Xs = rng.uniform(size=(30, d))
    ys = np.sin(3 * Xs.sum(axis=1)) * (-1 if seed % 2 else 1)
    Xt = rng.uniform(size=(8, d))
    yt = np.sin(3 * Xt.sum(axis=1)) + 0.1
    Xq = rng.uniform(size=(25, d))
    Xn = rng.uniform(size=(2, d))
    yn = rng.normal(size=2)
    return Xs, ys, Xt, yt, Xq, Xn, yn


def _kernel(seed: int, d: int = 3):
    cls = Matern52Kernel if seed % 2 else RBFKernel
    return cls(np.full(d, 0.3))


def _assert_same_model(a, b, Xq, Xn, yn):
    """Identical optimum, posterior and updated pool posterior."""
    np.testing.assert_array_equal(a._opt_theta, b._opt_theta)
    for ma, mb in zip(a.predict(Xq), b.predict(Xq)):
        np.testing.assert_array_equal(ma, mb)
    for model in (a, b):
        model.register_pool(Xq)
        model.predict_pool(np.arange(len(Xq)))
        model.update(Xn, yn)
    pa = a.predict_pool(np.arange(len(Xq)))
    pb = b.predict_pool(np.arange(len(Xq)))
    for ma, mb in zip(pa, pb):
        np.testing.assert_array_equal(ma, mb)
    assert a.last_update_fallback == b.last_update_fallback


class TestConstructorsAreOneModel:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_one_archive_multisource_is_transfer_gp(self, seed):
        Xs, ys, Xt, yt, Xq, Xn, yn = _data(seed)
        two = TransferGP(
            _kernel(seed), a=0.2, b=1.0, n_restarts=2, seed=seed
        ).fit(Xs, ys, Xt, yt)
        multi = MultiSourceTransferGP(
            _kernel(seed), a=0.2, b=1.0, n_restarts=2, seed=seed
        ).fit([(Xs, ys)], Xt, yt)
        np.testing.assert_array_equal(multi.lambdas, [two.lam])
        _assert_same_model(two, multi, Xq, Xn, yn)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_no_archive_multisource_is_gp_regressor(self, seed):
        _, _, Xt, yt, Xq, Xn, yn = _data(seed)
        plain = GPRegressor(_kernel(seed), n_restarts=1, seed=seed).fit(
            Xt, yt
        )
        multi = MultiSourceTransferGP(
            _kernel(seed), n_restarts=1, seed=seed
        ).fit([], Xt, yt)
        assert multi.lambdas.shape == (0,)
        _assert_same_model(plain, multi, Xq, Xn, yn)


class TestObjectiveGradient:
    @pytest.mark.parametrize(
        "kernel_cls, n_sources",
        [(RBFKernel, k) for k in (0, 1, 2)]
        + [(Matern52Kernel, k) for k in (0, 1, 2)],
        ids=["0", "1", "2", "matern52-0", "matern52-1", "matern52-2"],
    )
    def test_matches_finite_differences(self, kernel_cls, n_sources):
        rng = np.random.default_rng(10 + n_sources)
        sources = [
            (rng.uniform(size=(6, 2)), rng.normal(size=6))
            for _ in range(n_sources)
        ]
        Xt = rng.uniform(size=(7, 2))
        model = MultiSourceTransferGP(
            kernel_cls(np.full(2, 0.5)), a=0.4, b=1.3, optimize=False
        ).fit(sources, Xt, rng.normal(size=7))
        z = (model._y_raw - model._y_mean) / model._y_std
        objective = model._objective(model._X, model._tasks, z)
        theta = model._theta()
        assert len(theta) == 3 + 2 * n_sources + n_sources + 1
        theta = theta + rng.normal(scale=0.1, size=len(theta))
        numeric = approx_fprime(theta, lambda t: objective(t)[0], 1e-6)
        np.testing.assert_allclose(
            objective(theta)[1], numeric, rtol=1e-4, atol=1e-4
        )
