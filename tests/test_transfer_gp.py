"""Tests for the transfer kernel (Eq. (5)-(7)) and transfer GP (Eq. (8))."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import approx_fprime

from repro.gp import (
    SOURCE_TASK,
    TARGET_TASK,
    RBFKernel,
    TransferGP,
    transfer_factor,
)

rng = np.random.default_rng(1)


class TestTransferFactor:
    def test_range(self):
        for a in (0.1, 1.0, 10.0):
            for b in (0.1, 1.0, 10.0):
                lam = transfer_factor(a, b)
                assert -1.0 < lam <= 1.0

    def test_limit_full_transfer(self):
        # a -> 0: lambda -> 1 (tasks identical).
        assert transfer_factor(1e-9, 1.0) == pytest.approx(1.0)

    def test_limit_negative_transfer(self):
        # Large a, b: lambda -> -1 (anti-correlated tasks).
        assert transfer_factor(100.0, 10.0) == pytest.approx(-1.0, abs=1e-3)

    def test_zero_crossing(self):
        # (1+a)^-b = 1/2 -> lambda = 0.
        a = 1.0
        b = 1.0  # (2)^-1 = 0.5
        assert transfer_factor(a, b) == pytest.approx(0.0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            transfer_factor(-1.0, 1.0)
        with pytest.raises(ValueError):
            transfer_factor(1.0, 0.0)

    def test_matches_eq7_form(self):
        a, b = 0.7, 2.3
        assert transfer_factor(a, b) == pytest.approx(
            2.0 * (1.0 / (1.0 + a)) ** b - 1.0
        )


class TestTransferKernel:
    """The Eq. (7) transfer kernel, as realised by the model covariance."""

    def _model(self, n_src, n_tgt, a=1.0, b=1.0, optimize=False):
        X = rng.uniform(size=(n_src + n_tgt, 2))
        y = np.sin(4 * X.sum(axis=1))
        model = TransferGP(
            RBFKernel(np.full(2, 0.5)), a=a, b=b, optimize=optimize
        ).fit(X[:n_src], y[:n_src], X[n_src:], y[n_src:])
        return model, X

    def _prior(self, model):
        """Noise-free joint prior covariance of the training rows."""
        return model._cov_full() - np.diag(model._noise()[model._tasks])

    def test_within_task_is_base_kernel(self):
        model, X = self._model(6, 3)
        K = self._prior(model)
        K_base = model.kernel.eval(X)
        assert np.allclose(K[:6, :6], K_base[:6, :6])
        assert np.allclose(K[6:, 6:], K_base[6:, 6:])

    def test_cross_task_damped(self):
        model, X = self._model(2, 2, a=1.0, b=2.0)  # lambda = 2/4-1 = -0.5
        assert model.lam == pytest.approx(-0.5)
        K = self._prior(model)
        K_base = model.kernel.eval(X)
        assert np.allclose(K[:2, 2:], model.lam * K_base[:2, 2:])
        assert np.allclose(K[:2, :2], K_base[:2, :2])
        # Target queries see source rows damped by lambda too.
        Xq = rng.uniform(size=(3, 2))
        K_q = model._cross_cov(Xq)
        K_q_base = model.kernel.eval(Xq, X)
        assert np.allclose(K_q[:, :2], model.lam * K_q_base[:, :2])
        assert np.allclose(K_q[:, 2:], K_q_base[:, 2:])

    def test_psd_for_positive_lambda(self):
        model, _ = self._model(5, 5, a=0.5, b=0.5)
        assert model.lam > 0
        eigs = np.linalg.eigvalsh(self._prior(model))
        assert eigs.min() > -1e-8

    def test_theta_includes_gamma_params(self):
        model, _ = self._model(6, 4, optimize=True)
        # Base kernel, log a, log b, then the two task noises.
        assert len(model._opt_theta) == model.kernel.n_params + 2 + 2

    def test_theta_setter(self):
        model, _ = self._model(4, 3, a=2.0, b=3.0)
        assert model.lam == pytest.approx(transfer_factor(2.0, 3.0))
        assert np.allclose(np.exp(model._log_a), 2.0)
        assert np.allclose(np.exp(model._log_b), 3.0)

    def test_invalid_gamma_rejected(self):
        with pytest.raises(ValueError):
            TransferGP(RBFKernel(np.ones(2)), a=-1.0)

    def test_gradients_match_finite_differences(self):
        model, _ = self._model(5, 5, a=0.8, b=1.2)
        z = (model._y_raw - model._y_mean) / model._y_std
        objective = model._objective(model._X, model._tasks, z)
        theta0 = model._theta() + rng.normal(
            scale=0.05, size=len(model._theta())
        )
        numeric = approx_fprime(theta0, lambda t: objective(t)[0], 1e-6)
        assert np.allclose(objective(theta0)[1], numeric, atol=1e-4)


def _make_tasks(shift=0.05, flip=False, n_src=60, n_tgt=10):
    Xs = rng.uniform(size=(n_src, 3))
    f = lambda X: np.sin(3 * X.sum(axis=1))  # noqa: E731
    ys = -f(Xs) if flip else f(Xs)
    Xt = rng.uniform(size=(n_tgt, 3))
    yt = f(Xt) + shift
    Xq = rng.uniform(size=(60, 3))
    yq = f(Xq) + shift
    return Xs, ys, Xt, yt, Xq, yq


class TestTransferGP:
    def test_positive_transfer_learned(self):
        Xs, ys, Xt, yt, Xq, yq = _make_tasks()
        model = TransferGP(seed=0).fit(Xs, ys, Xt, yt)
        assert model.lam > 0.5
        mean, _ = model.predict(Xq)
        assert np.sqrt(np.mean((mean - yq) ** 2)) < 0.15

    def test_negative_transfer_learned(self):
        Xs, ys, Xt, yt, Xq, yq = _make_tasks(flip=True)
        model = TransferGP(seed=0).fit(Xs, ys, Xt, yt)
        assert model.lam < -0.5
        mean, _ = model.predict(Xq)
        assert np.sqrt(np.mean((mean - yq) ** 2)) < 0.3

    def test_transfer_beats_target_only(self):
        from repro.gp import GPRegressor

        Xs, ys, Xt, yt, Xq, yq = _make_tasks()
        transfer = TransferGP(seed=0).fit(Xs, ys, Xt, yt)
        target_only = GPRegressor(seed=0).fit(Xt, yt)
        rmse_t = np.sqrt(np.mean((transfer.predict(Xq)[0] - yq) ** 2))
        rmse_o = np.sqrt(np.mean((target_only.predict(Xq)[0] - yq) ** 2))
        assert rmse_t < rmse_o

    def test_no_source_data_still_works(self):
        _, _, Xt, yt, Xq, yq = _make_tasks(n_tgt=25)
        model = TransferGP(seed=0).fit(
            np.empty((0, 3)), np.empty(0), Xt, yt
        )
        mean, var = model.predict(Xq)
        assert mean.shape == (60,)
        assert np.all(var > 0)

    def test_empty_target_raises(self):
        Xs, ys, *_ = _make_tasks()
        with pytest.raises(ValueError, match="target"):
            TransferGP().fit(Xs, ys, np.empty((0, 3)), np.empty(0))

    def test_dim_mismatch_raises(self):
        Xs, ys, Xt, yt, *_ = _make_tasks()
        with pytest.raises(ValueError, match="dimensionality"):
            TransferGP().fit(Xs[:, :2], ys, Xt, yt)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            TransferGP().predict(np.zeros((1, 3)))

    def test_noise_properties(self):
        Xs, ys, Xt, yt, *_ = _make_tasks()
        model = TransferGP(
            noise_source=0.5, noise_target=0.25, optimize=False
        ).fit(Xs, ys, Xt, yt)
        assert model.noise_source == pytest.approx(0.5)
        assert model.noise_target == pytest.approx(0.25)

    def test_include_noise_adds_target_noise(self):
        Xs, ys, Xt, yt, Xq, _ = _make_tasks()
        model = TransferGP(seed=0).fit(Xs, ys, Xt, yt)
        _, v0 = model.predict(Xq[:3], include_noise=False)
        _, v1 = model.predict(Xq[:3], include_noise=True)
        assert np.all(v1 >= v0)

    def test_interpolates_target_points(self):
        Xs, ys, Xt, yt, *_ = _make_tasks(n_tgt=15)
        model = TransferGP(
            noise_target=1e-6, noise_source=1e-2, seed=0
        ).fit(Xs, ys, Xt, yt)
        mean, _ = model.predict(Xt)
        assert np.abs(mean - yt).max() < 0.1

    def test_lml_finite(self):
        Xs, ys, Xt, yt, *_ = _make_tasks()
        model = TransferGP(seed=0).fit(Xs, ys, Xt, yt)
        assert np.isfinite(model.log_marginal_likelihood())

    def test_task_constants(self):
        assert SOURCE_TASK != TARGET_TASK
