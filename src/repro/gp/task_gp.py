"""One task-structured Gaussian process behind every GP model.

Training rows carry a task label: source tasks ``0..K-1`` and the target
task ``K``.  The prior covariance is the base kernel times a task factor

    F[i, j] = 1 + [t_i != t_j] * (c_{t_i} c_{t_j} - 1)

with ``c_target = 1`` and, per source ``s``, the paper's integrated
cross-task damping (Eq. (7))

    c_s = lambda_s = 2 * (1 + a_s) ** -b_s - 1.

A Gamma(b, a) prior on the task dissimilarity ``phi`` in
``2 exp(-phi) - 1``, integrated out analytically, gives ``lambda`` in
``(-1, 1]``: positive transfer, none (0), or anti-correlated tasks.  The
factor matrix over tasks is ``diag(1 - c^2) + c c^T``, positive
semi-definite, so the Schur product with the base kernel stays a valid
covariance.  Each task has its own noise variance (the ``beta_s^-1`` /
``beta_t^-1`` of Eq. (8)), and every hyperparameter is fitted by joint
marginal likelihood with analytic gradients.

The three public models are this class with different task layouts:

- :class:`~repro.gp.gp_regression.GPRegressor`: ``K = 0``, plain GP
  regression (paper Eq. (1));
- :class:`~repro.gp.transfer_gp.TransferGP`: ``K = 1``, every archive
  stacked into one source task — the paper's two-task model
  (Eq. (5)-(8)); with no source rows its ``a``, ``b`` and source noise
  are unidentifiable and stay pinned;
- :class:`~repro.gp.multisource.MultiSourceTransferGP`: one source task
  per non-empty archive.

Prediction at a target-task input follows Eq. (8):

    mu(x)      = k~(x, X)^T (K~ + Lambda)^-1 y
    sigma^2(x) = k(x, x) [+ beta_t^-1] - k~(x, X)^T (K~ + Lambda)^-1 k~(x, X)

Targets are standardized internally; inputs are expected pre-normalized.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular

from .incremental import IncrementalGPMixin
from .kernels import Kernel, RBFKernel, pairwise_sq_diffs
from .likelihood import gaussian_log_marginal, maximize_objective
from .linalg import cholesky_inverse, cholesky_solve, robust_cholesky

#: Log-space bounds for the Gamma hyperparameters a and b.
_GAMMA_BOUNDS = (-5.0, 4.0)
#: Log-space bounds for the per-task noise variances.
_NOISE_BOUNDS = (-12.0, 2.0)


def transfer_factor(a: float, b: float) -> float:
    """The integrated cross-task damping ``lambda`` of Eq. (7).

    Args:
        a: Gamma scale parameter (> 0).
        b: Gamma shape parameter (> 0).

    Returns:
        ``2 * (1 + a) ** -b - 1`` in ``(-1, 1]``.

    Raises:
        ValueError: If ``a`` or ``b`` is not positive.
    """
    if a <= 0 or b <= 0:
        raise ValueError("Gamma parameters a, b must be positive")
    return float(2.0 * (1.0 + a) ** (-b) - 1.0)


def _coefficients(
    log_a: np.ndarray, log_b: np.ndarray
) -> tuple[np.ndarray, list[float], list[float]]:
    """Task coefficients ``c`` (target last, pinned at 1) and the
    per-source derivatives ``d lambda / d log a`` and ``/ d log b``.

    Scalar arithmetic per source keeps every value bit-identical to the
    two-task formulas whatever the source count.
    """
    ab = [(float(np.exp(la)), float(np.exp(lb)))
          for la, lb in zip(log_a, log_b)]
    c = np.array([transfer_factor(a, b) for a, b in ab] + [1.0])
    # d lambda / d log a = -2 b a (1+a)^(-b-1)
    dc_da = [-2.0 * b * a * (1.0 + a) ** (-b - 1.0) for a, b in ab]
    # d lambda / d log b = -2 b log(1+a) (1+a)^(-b)
    dc_db = [-2.0 * b * np.log1p(a) * (1.0 + a) ** (-b) for a, b in ab]
    return c, dc_da, dc_db


def _task_factor(c: np.ndarray, t1, t2, cross=None) -> np.ndarray:
    """``1 + [t1 != t2] (c_t1 c_t2 - 1)``, broadcast over the labels."""
    if cross is None:
        cross = t1 != t2
    return 1.0 + cross * (c[t1] * c[t2] - 1.0)


def _source_pairs(sources, d: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Validated float ``(X, y)`` source pairs in a ``d``-column space."""
    pairs = []
    for X, y in sources:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if X.size == 0:
            X = np.empty((0, d))
        if len(X) != len(y):
            raise ValueError("source X/y misaligned")
        if X.shape[1] != d:
            raise ValueError("source/target dimensionality mismatch")
        pairs.append((X, y))
    return pairs


class _TaskGP(IncrementalGPMixin):
    """K-source task-structured GP; see the module docstring.

    Hyperparameters, in optimizer order: the base kernel's theta, then
    ``log a_s`` and ``log b_s`` per source, then the per-task log noise
    variances (target last).
    """

    def __init__(
        self,
        kernel: Kernel | None,
        a: float,
        b: float,
        noise_source: float,
        noise_target: float,
        n_sources: int,
        optimize: bool,
        n_restarts: int,
        seed: int | None,
    ) -> None:
        if min(a, b) <= 0:
            raise ValueError("Gamma parameters a, b must be positive")
        if min(noise_source, noise_target) <= 0:
            raise ValueError("noise variances must be positive")
        self.kernel = kernel
        self._init = tuple(
            float(np.log(v)) for v in (a, b, noise_source, noise_target)
        )
        self.optimize = optimize
        self.n_restarts = n_restarts
        self.seed = seed
        self._X: np.ndarray | None = None
        self._tasks: np.ndarray | None = None
        self._L: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        self._y_mean = 0.0
        self._y_std = 1.0
        self._opt_theta: np.ndarray | None = None
        self._set_task_count(n_sources)

    def _set_task_count(self, k: int) -> None:
        """(Re)initialize the task hyperparameters for ``k`` sources."""
        log_a, log_b, log_ns, log_nt = self._init
        self._n_sources = k
        self._log_a = np.full(k, log_a)
        self._log_b = np.full(k, log_b)
        self._log_noise = np.append(np.full(k, log_ns), log_nt)

    @property
    def is_fitted(self) -> bool:
        """Whether the model has been fitted."""
        return self._alpha is not None

    @property
    def lambdas(self) -> np.ndarray:
        """Learned target-source correlation ``lambda_s`` per source."""
        if not self.is_fitted:
            raise RuntimeError("model not fitted")
        return _coefficients(self._log_a, self._log_b)[0][:-1]

    def _noise(self) -> np.ndarray:
        """Per-task noise variances (target last)."""
        return np.array([float(np.exp(v)) for v in self._log_noise])

    # ---- fitting -------------------------------------------------------

    def _fit(
        self,
        sources,
        X_target: np.ndarray,
        y_target: np.ndarray,
        merge_sources: bool = False,
    ) -> "_TaskGP":
        """Fit on source pairs plus target data.

        Args:
            sources: ``(X_k, y_k)`` source pairs.
            X_target: ``(M, d)`` target inputs (``M >= 1``).
            y_target: Length-``M`` target values.
            merge_sources: Stack every pair into one source task (kept
                even when empty); otherwise each non-empty pair is its
                own task.

        Raises:
            ValueError: On misaligned or empty target data, misaligned
                sources or a dimensionality mismatch.
        """
        Xt = np.atleast_2d(np.asarray(X_target, dtype=float))
        yt = np.asarray(y_target, dtype=float).ravel()
        if len(Xt) != len(yt) or len(yt) == 0:
            raise ValueError("target X/y misaligned or empty")
        d = Xt.shape[1]
        pairs = _source_pairs(sources, d)
        if merge_sources:
            pairs = [(
                np.vstack([X for X, _ in pairs] or [np.empty((0, d))]),
                np.concatenate([y for _, y in pairs] or [np.empty(0)]),
            )]
        else:
            pairs = [(X, y) for X, y in pairs if len(y)]
        if len(pairs) != self._n_sources:
            self._set_task_count(len(pairs))
        X = np.vstack([X for X, _ in pairs] + [Xt])
        y = np.concatenate([y for _, y in pairs] + [yt])
        tasks = np.repeat(
            np.arange(len(pairs) + 1), [len(y) for _, y in pairs] + [len(yt)]
        )
        if self.kernel is None:
            self.kernel = RBFKernel(np.full(d, 0.3))

        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0
        z = (y - self._y_mean) / self._y_std
        if self.optimize and len(X) >= 3:
            empty = [k for k, (_, y_k) in enumerate(pairs) if not len(y_k)]
            self._optimize_hyperparameters(X, tasks, z, empty)

        self._L, self._jitter = robust_cholesky(self._covariance(X, tasks))
        self._alpha = cholesky_solve(self._L, z)
        self._X = X
        self._tasks = tasks
        self._y_raw = y.copy()
        self._invalidate_pool_cache()
        return self

    def _covariance(self, X: np.ndarray, tasks: np.ndarray) -> np.ndarray:
        """Training covariance ``K~ + Lambda`` at the current parameters."""
        assert self.kernel is not None
        K = self.kernel.eval(X)
        if (tasks != self._n_sources).any():
            c = _coefficients(self._log_a, self._log_b)[0]
            K = K * _task_factor(c, tasks[:, None], tasks[None, :])
        return K + np.diag(self._noise()[tasks])

    def _theta(self) -> np.ndarray:
        """Current hyperparameters in optimizer order."""
        assert self.kernel is not None
        return np.concatenate(
            [self.kernel.theta, self._log_a, self._log_b, self._log_noise]
        )

    def _objective(self, X: np.ndarray, tasks: np.ndarray, z: np.ndarray):
        """Negative LML and its fused gradient as a function of theta.

        With ``inner = alpha alpha^T - K^-1`` and ``K = K_base * F`` no
        ``dK/dtheta_i`` is formed (DESIGN.md §5e).  The returned callable
        sets the live kernel theta as it goes.
        """
        kernel = self.kernel
        assert kernel is not None
        n_k, n_src = kernel.n_params, self._n_sources
        # X and the task layout are fixed during L-BFGS: build once the
        # squared differences and the runs of equal task labels.
        D = pairwise_sq_diffs(X)
        cross = tasks[:, None] != tasks[None, :]
        has_cross = bool(cross.any())
        starts = np.flatnonzero(np.diff(tasks, prepend=-1))
        run_tasks = np.ix_(tasks[starts], tasks[starts])
        diag = np.diag_indices(len(X))

        def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
            kernel.theta = theta[:n_k]
            c, dc_da, dc_db = _coefficients(
                theta[n_k:n_k + n_src], theta[n_k + n_src:n_k + 2 * n_src]
            )
            noise = np.array([float(np.exp(v)) for v in theta[-n_src - 1:]])
            K_base, contract = kernel.gram(D)
            F = _task_factor(c, tasks[:, None], tasks[None, :], cross) \
                if has_cross else 1.0
            K = K_base * F
            K[diag] += noise[tasks]
            lml, L, alpha = gaussian_log_marginal(K, z)
            inner = np.outer(alpha, alpha) - cholesky_inverse(L)
            g_c = np.zeros(n_src)
            if has_cross:
                # S[k, l]: sum of inner * K_base over task pair (k, l).
                S = np.zeros((n_src + 1, n_src + 1))
                P = np.add.reduceat(inner * K_base, starts, axis=0)
                np.add.at(S, run_tasks, np.add.reduceat(P, starts, axis=1))
                g_c = S[:-1] @ c - np.diag(S)[:-1] * c[:-1]
            grad = np.concatenate([
                0.5 * contract(inner * F),
                g_c * dc_da,
                g_c * dc_db,
                0.5 * noise * np.bincount(tasks, np.diag(inner), n_src + 1),
            ])
            return -lml, -grad

        return objective

    def _optimize_hyperparameters(
        self, X: np.ndarray, tasks: np.ndarray, z: np.ndarray, empty: list
    ) -> None:
        kernel = self.kernel
        assert kernel is not None
        n_k, n_src = kernel.n_params, self._n_sources
        objective = self._objective(X, tasks, z)
        # Warm-start refits from the previously *optimized* vector: the
        # objective mutates the live kernel theta in place, so after an
        # aborted or perturbed optimization the live value is not where
        # the refit should resume.
        theta0 = self._theta()
        if self._opt_theta is not None and len(self._opt_theta) == len(theta0):
            theta0 = self._opt_theta
        bounds = (
            kernel.bounds()
            + [_GAMMA_BOUNDS] * (2 * n_src)
            + [_NOISE_BOUNDS] * (n_src + 1)
        )
        for s in empty:
            # Without rows a source's transfer and noise parameters are
            # unidentifiable; pin them to their current values.
            for i in (n_k + s, n_k + n_src + s, n_k + 2 * n_src + s):
                bounds[i] = (theta0[i], theta0[i])
        best = maximize_objective(
            objective, theta0, bounds,
            n_restarts=self.n_restarts, seed=self.seed,
        )
        kernel.theta = best[:n_k]
        self._log_a = best[n_k:n_k + n_src].copy()
        self._log_b = best[n_k + n_src:n_k + 2 * n_src].copy()
        self._log_noise = best[n_k + 2 * n_src:].copy()
        self._opt_theta = np.asarray(best, dtype=float).copy()

    # ---- incremental hooks (see IncrementalGPMixin) -------------------

    def _cross_cov(
        self, X_query: np.ndarray, rows: slice | None = None
    ) -> np.ndarray:
        """Covariance of target-task queries vs training ``rows``."""
        assert self.kernel is not None
        assert self._X is not None and self._tasks is not None
        X2 = self._X if rows is None else self._X[rows]
        tasks2 = self._tasks if rows is None else self._tasks[rows]
        K = self.kernel.eval(np.atleast_2d(X_query), X2)
        if (tasks2 != self._n_sources).any():
            c = _coefficients(self._log_a, self._log_b)[0]
            K = K * _task_factor(c, self._n_sources, tasks2)
        return K

    def _cov_new_block(self, X_new: np.ndarray) -> np.ndarray:
        """Covariance among new target rows, noise included."""
        assert self.kernel is not None
        return self.kernel.eval(X_new) + self._predict_noise() * np.eye(
            len(X_new)
        )

    def _cov_full(self) -> np.ndarray:
        """Full training covariance (noise included), for refits."""
        assert self._X is not None and self._tasks is not None
        return self._covariance(self._X, self._tasks)

    def _prior_diag(self, X_query: np.ndarray) -> np.ndarray:
        """Prior variance at target-task queries."""
        assert self.kernel is not None
        return self.kernel.diag(np.atleast_2d(X_query))

    def _predict_noise(self) -> float:
        """Target-task observation-noise variance."""
        return float(np.exp(self._log_noise[-1]))

    def _append_data(self, X_new: np.ndarray, y_new: np.ndarray) -> None:
        """Append new target rows to the stored training data."""
        assert self._X is not None and self._tasks is not None
        assert self._y_raw is not None
        self._X = np.vstack([self._X, X_new])
        self._tasks = np.concatenate(
            [self._tasks, np.full(len(y_new), self._n_sources)]
        )
        self._y_raw = np.concatenate([self._y_raw, y_new])

    def _cov_params(self) -> tuple:
        """Hashable digest of every covariance-defining hyperparameter."""
        kernel_sig = None if self.kernel is None else (
            type(self.kernel).__name__,
            tuple(float(v) for v in np.asarray(self.kernel.theta).ravel()),
        )
        return (kernel_sig,) + tuple(
            tuple(float(v) for v in p)
            for p in (self._log_a, self._log_b, self._log_noise)
        )

    def _adopt_structure(self, lead: "_TaskGP") -> None:
        """Adopt a lead model's training layout (X, task labels)."""
        assert lead._X is not None
        if self.kernel is None:
            self.kernel = RBFKernel(np.full(lead._X.shape[1], 0.3))
        if self._n_sources != lead._n_sources:
            self._set_task_count(lead._n_sources)
        self._X = lead._X
        self._tasks = lead._tasks

    # ---- prediction ----------------------------------------------------

    def predict(
        self, X_new: np.ndarray, include_noise: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance at target-task inputs (Eq. (8)).

        Args:
            X_new: ``(m, d)`` query inputs.
            include_noise: Add the target noise variance (the ``c`` term
                of Eq. (8) includes it; off by default for the tuner's
                epistemic-uncertainty regions).

        Returns:
            ``(mean, variance)`` arrays of length ``m`` in the original
            target scale.

        Raises:
            RuntimeError: If called before fitting.
        """
        if not self.is_fitted:
            raise RuntimeError("predict() before fit()")
        assert self._L is not None and self._alpha is not None
        X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
        K_star = self._cross_cov(X_new)
        mean_z = K_star @ self._alpha
        v = solve_triangular(self._L, K_star.T, lower=True)
        var_z = self._prior_diag(X_new) - np.sum(v * v, axis=0)
        var_z = np.maximum(var_z, 1e-12)
        if include_noise:
            var_z = var_z + self._predict_noise()
        return mean_z * self._y_std + self._y_mean, var_z * self._y_std**2

    def log_marginal_likelihood(self) -> float:
        """LML of the fitted model on its training data."""
        if not self.is_fitted:
            raise RuntimeError("log_marginal_likelihood() before fit()")
        assert self._L is not None and self._alpha is not None
        L, alpha = self._L, self._alpha
        # Recover z from alpha: z = K alpha = L L^T alpha.
        z = L @ (L.T @ alpha)
        return float(
            -0.5 * z @ alpha
            - np.sum(np.log(np.diag(L)))
            - 0.5 * len(z) * np.log(2 * np.pi)
        )
