"""Transfer Gaussian process (paper Section 3.1, Eq. (4)-(8)).

One model per QoR metric.  Every source archive is stacked into a single
source task next to the target task: the one-source case of the
task-structured GP in :mod:`repro.gp.task_gp`, whose prior covariance is
the Eq. (7) transfer kernel (cross-task entries damped by ``lambda``)
with heteroskedastic per-task noise (``beta_s^-1`` on source rows,
``beta_t^-1`` on target rows — the ``Lambda`` of Eq. (8)).  All
hyperparameters are learned by maximizing the joint log marginal
likelihood; without source rows ``a``, ``b`` and ``beta_s`` stay pinned.
"""

from __future__ import annotations

import numpy as np

from .kernels import Kernel
from .task_gp import _TaskGP

#: Task label of source rows.
SOURCE_TASK = 0
#: Task label of target rows.
TARGET_TASK = 1


class TransferGP(_TaskGP):
    """Two-task transfer GP regressor.

    Example:
        >>> model = TransferGP()
        >>> model.fit(Xs, ys, Xt, yt)          # doctest: +SKIP
        >>> mean, var = model.predict(X_new)   # doctest: +SKIP
    """

    def __init__(
        self,
        kernel: Kernel | None = None,
        a: float = 1.0,
        b: float = 1.0,
        noise_source: float = 1e-2,
        noise_target: float = 1e-2,
        optimize: bool = True,
        n_restarts: int = 2,
        seed: int | None = 0,
    ) -> None:
        """Create the model.

        Args:
            kernel: Base within-task kernel (ARD RBF by default, sized at
                fit time).
            a: Initial Gamma scale of the transfer prior.
            b: Initial Gamma shape of the transfer prior.
            noise_source: Initial source-noise variance (``beta_s^-1``).
            noise_target: Initial target-noise variance (``beta_t^-1``).
            optimize: Whether :meth:`fit` tunes hyperparameters.
            n_restarts: Optimizer restarts.
            seed: Seed for restarts.
        """
        super().__init__(
            kernel, a, b, noise_source, noise_target,
            n_sources=1, optimize=optimize, n_restarts=n_restarts,
            seed=seed,
        )

    @property
    def noise_source(self) -> float:
        """Source observation-noise variance (standardized scale)."""
        return float(np.exp(self._log_noise[SOURCE_TASK]))

    @property
    def noise_target(self) -> float:
        """Target observation-noise variance (standardized scale)."""
        return self._predict_noise()

    @property
    def lam(self) -> float:
        """Learned cross-task correlation factor ``lambda``."""
        return float(self.lambdas[0])

    def fit(
        self,
        X_source: np.ndarray | None = None,
        y_source: np.ndarray | None = None,
        X_target: np.ndarray | None = None,
        y_target: np.ndarray | None = None,
        *,
        sources: list[tuple[np.ndarray, np.ndarray]] | None = None,
    ) -> "TransferGP":
        """Fit the joint model on stacked source + target data.

        Source data may be supplied either as explicit
        ``X_source``/``y_source`` arrays or — the keyword shared with
        :class:`~repro.gp.multisource.MultiSourceTransferGP` — as
        ``sources``, a list of ``(X_k, y_k)`` pairs (stacked into one
        source task here; an empty list means no transfer).

        Args:
            X_source: ``(N, d)`` source inputs (may be empty).
            y_source: Length-``N`` source targets.
            X_target: ``(M, d)`` target inputs (``M >= 1``).
            y_target: Length-``M`` target targets.
            sources: ``(X_k, y_k)`` source archives; mutually exclusive
                with ``X_source``/``y_source``.

        Returns:
            ``self``.

        Raises:
            ValueError: On shape mismatch, empty target data, or
                conflicting source arguments.
        """
        if sources is not None and (
            X_source is not None or y_source is not None
        ):
            raise ValueError(
                "pass either X_source/y_source or sources, not both"
            )
        if (X_source is None) != (y_source is None):
            raise ValueError("X_source and y_source must be passed together")
        if X_target is None or y_target is None:
            raise ValueError("X_target and y_target are required")
        if sources is None:
            sources = [] if X_source is None else [(X_source, y_source)]
        return self._fit(sources, X_target, y_target, merge_sources=True)
