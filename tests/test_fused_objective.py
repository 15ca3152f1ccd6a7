"""The fused likelihood gradient against the dense-dK reference.

``_TaskGP._objective`` contracts ``inner = alpha alpha^T - K^-1`` with
the structure of ``K`` instead of forming one ``dK/dtheta_i`` matrix per
hyperparameter.  The reference below is the dense form it replaced:
per-hyperparameter ``dK`` matrices from the per-dimension scaled squared
distances, ``K^-1 = cho_solve(L, I)`` and ``0.5 * sum(inner * dK)``.
Value and gradient must agree to 1e-10 (relative) for zero, one and two
source tasks under both kernels, with the rows grouped by task (as fits
lay them out) or interleaved.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gp import Matern52Kernel, MultiSourceTransferGP, RBFKernel
from repro.gp.kernels import _sq_dists_per_dim
from repro.gp.linalg import cholesky_solve, robust_cholesky
from repro.gp.task_gp import _coefficients, _task_factor

pytestmark = pytest.mark.fastpath


def _dense_kernel_grads(kernel, X):
    """Kernel matrix and ``dK/dtheta`` per kernel hyperparameter."""
    Xs = X / kernel.lengthscales
    sq_dims = _sq_dists_per_dim(Xs, Xs)
    r2 = sq_dims.sum(axis=2)
    if isinstance(kernel, RBFKernel):
        K = kernel.variance * np.exp(-0.5 * r2)
        grads = [K * sq_dims[:, :, j] for j in range(kernel.dim)]
    else:
        s5r = np.sqrt(5.0) * np.sqrt(np.maximum(r2, 0.0))
        expo = np.exp(-s5r)
        K = kernel.variance * (1.0 + s5r + 5.0 / 3.0 * r2) * expo
        dk_dr2 = -(5.0 / 6.0) * kernel.variance * (1.0 + s5r) * expo
        grads = [dk_dr2 * (-2.0 * sq_dims[:, :, j]) for j in range(kernel.dim)]
    return K, grads + [K.copy()]


def _dense_objective(model, X, tasks, z):
    """The dense-dK negative LML and gradient (the pre-fusion form)."""
    kernel = model.kernel
    n_k, n_src = kernel.n_params, model._n_sources
    in_task = [tasks == k for k in range(n_src + 1)]
    cross = tasks[:, None] != tasks[None, :]
    touches = [cross & (m[:, None] | m[None, :]) for m in in_task[:-1]]

    def objective(theta):
        kernel.theta = theta[:n_k]
        c, dc_da, dc_db = _coefficients(
            theta[n_k:n_k + n_src], theta[n_k + n_src:n_k + 2 * n_src]
        )
        noise = [float(np.exp(v)) for v in theta[n_k + 2 * n_src:]]
        K_base, grads = _dense_kernel_grads(kernel, X)
        factor = _task_factor(c, tasks[:, None], tasks[None, :], cross)
        grads = [g * factor for g in grads]
        cr = c[tasks]
        dK_dc = [
            K_base * np.where(
                t, np.where(m[:, None], cr[None, :], cr[:, None]), 0.0
            )
            for t, m in zip(touches, in_task)
        ]
        grads = (
            grads
            + [dK * d for dK, d in zip(dK_dc, dc_da)]
            + [dK * d for dK, d in zip(dK_dc, dc_db)]
            + [v * np.diag(m.astype(float)) for v, m in zip(noise, in_task)]
        )
        K = K_base * factor + np.diag(np.array(noise)[tasks])
        L, _ = robust_cholesky(K)
        alpha = cholesky_solve(L, z)
        lml = (
            -0.5 * z @ alpha
            - np.sum(np.log(np.diag(L)))
            - 0.5 * len(z) * np.log(2.0 * np.pi)
        )
        inner = np.outer(alpha, alpha) - cholesky_solve(L, np.eye(len(z)))
        g = np.array([0.5 * np.sum(inner * dK) for dK in grads])
        return -lml, -g

    return objective


@pytest.mark.parametrize("kernel_cls", [RBFKernel, Matern52Kernel])
@pytest.mark.parametrize("n_sources", [0, 1, 2])
def test_fused_objective_matches_dense_reference(kernel_cls, n_sources):
    rng = np.random.default_rng(100 + n_sources)
    d = 4
    sources = [
        (rng.uniform(size=(15, d)), rng.normal(size=15))
        for _ in range(n_sources)
    ]
    Xt = rng.uniform(size=(10, d))
    model = MultiSourceTransferGP(
        kernel_cls(np.full(d, 0.5)), a=0.4, b=1.3, optimize=False
    ).fit(sources, Xt, rng.normal(size=10))
    X, tasks = model._X, model._tasks
    z = (model._y_raw - model._y_mean) / model._y_std
    dense = _dense_objective(model, X, tasks, z)
    # Rows interleaved across tasks must not matter either.
    perm = rng.permutation(len(z))
    fused = [
        model._objective(X, tasks, z),
        model._objective(X[perm], tasks[perm], z[perm]),
    ]
    theta0 = model._theta()
    for _ in range(20):
        theta = theta0 + rng.normal(scale=0.7, size=len(theta0))
        ref_value, ref_grad = dense(theta)
        for objective in fused:
            value, grad = objective(theta)
            assert abs(value - ref_value) <= 1e-10 * abs(ref_value)
            assert (
                np.max(np.abs(grad - ref_grad))
                <= 1e-10 * np.max(np.abs(ref_grad))
            )
