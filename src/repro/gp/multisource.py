"""Multi-source transfer GP — an extension beyond the paper's two tasks.

The paper transfers from *one* historical tuning task; real tuning
archives hold many.  This model gives each non-empty archive its own
source task in the task-structured GP of :mod:`repro.gp.task_gp`: a
rank-1-plus-diagonal task-correlation matrix with
``c_target = 1`` and ``c_s = lambda_s = 2 (1 + a_s)^-b_s - 1`` per
source, so each target-source correlation reproduces the paper's
two-task factor and source-source correlations follow as products.
Each task carries its own noise variance.
"""

from __future__ import annotations

import numpy as np

from .kernels import Kernel
from .task_gp import _TaskGP


class MultiSourceTransferGP(_TaskGP):
    """Transfer GP over K source tasks and one target task.

    Example:
        >>> model = MultiSourceTransferGP()
        >>> model.fit([(Xs1, ys1), (Xs2, ys2)], Xt, yt)  # doctest: +SKIP
        >>> mean, var = model.predict(Xq)                # doctest: +SKIP
    """

    def __init__(
        self,
        kernel: Kernel | None = None,
        a: float = 1.0,
        b: float = 1.0,
        noise: float = 1e-2,
        optimize: bool = True,
        n_restarts: int = 1,
        seed: int | None = 0,
    ) -> None:
        """Create the model.

        Args:
            kernel: Base within-task kernel (ARD RBF by default).
            a: Initial Gamma scale shared by all sources.
            b: Initial Gamma shape shared by all sources.
            noise: Initial per-task noise variance.
            optimize: Whether :meth:`fit` tunes hyperparameters.
            n_restarts: Optimizer restarts.
            seed: Seed for restarts.
        """
        super().__init__(
            kernel, a, b, noise, noise,
            n_sources=0, optimize=optimize, n_restarts=n_restarts,
            seed=seed,
        )

    def fit(
        self,
        sources: list[tuple[np.ndarray, np.ndarray]] | None = None,
        X_target: np.ndarray | None = None,
        y_target: np.ndarray | None = None,
    ) -> "MultiSourceTransferGP":
        """Fit on K source datasets plus the target data.

        Args:
            sources: List of ``(X_s, y_s)`` pairs (may be empty; empty
                pairs are dropped) — the keyword shared with
                :class:`~repro.gp.transfer_gp.TransferGP`.
            X_target: ``(M, d)`` target inputs.
            y_target: Length-``M`` target values.

        Returns:
            ``self``.

        Raises:
            ValueError: On shape problems or empty target data.
        """
        if X_target is None or y_target is None:
            raise ValueError("X_target and y_target are required")
        return self._fit(sources or [], X_target, y_target)
