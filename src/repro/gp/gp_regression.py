"""Standard (single-task) Gaussian-process regression.

Implements paper Eq. (1): posterior mean and variance under a Gaussian
noise model, with hyperparameters fitted by maximizing the log marginal
likelihood — the zero-source case of the task-structured GP in
:mod:`repro.gp.task_gp`.  Targets are standardized internally, inputs
are expected pre-normalized (the tuners normalize to the unit cube).
"""

from __future__ import annotations

import numpy as np

from .kernels import Kernel
from .task_gp import _TaskGP


class GPRegressor(_TaskGP):
    """Exact GP regression with marginal-likelihood hyperparameter fit.

    Example:
        >>> X = np.random.rand(20, 3); y = X.sum(axis=1)
        >>> gp = GPRegressor(RBFKernel(np.ones(3))).fit(X, y)
        >>> mean, var = gp.predict(X[:5])
    """

    def __init__(
        self,
        kernel: Kernel | None = None,
        noise_variance: float = 1e-2,
        optimize: bool = True,
        n_restarts: int = 2,
        seed: int | None = 0,
    ) -> None:
        """Create the regressor.

        Args:
            kernel: Covariance kernel; defaults to an ARD RBF sized at
                fit time.
            noise_variance: Initial observation-noise variance (in the
                standardized-target scale).
            optimize: Whether :meth:`fit` tunes hyperparameters.
            n_restarts: Optimizer restarts.
            seed: Seed for the restarts.
        """
        super().__init__(
            kernel, 1.0, 1.0, noise_variance, noise_variance,
            n_sources=0, optimize=optimize, n_restarts=n_restarts,
            seed=seed,
        )

    @property
    def noise_variance(self) -> float:
        """Observation-noise variance (standardized scale)."""
        return self._predict_noise()

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GPRegressor":
        """Fit hyperparameters (optionally) and the posterior state.

        Args:
            X: ``(n, d)`` inputs.
            y: Length-``n`` targets.

        Returns:
            ``self``.

        Raises:
            ValueError: On shape mismatch or empty data.
        """
        return self._fit([], X, y)
