"""Shared incremental-calibration machinery for the GP models.

The tuning loop (Algorithm 1) refits every surrogate each iteration on
data that only ever *grows* by the freshly evaluated target points.  A
from-scratch refit re-evaluates the full kernel and refactorizes the
``(n_src + n_tgt)`` covariance — O(n^2 d + n^3) per metric per iteration.
This mixin gives every GP model an exact O(k n^2) fast path:

- :meth:`update` border-extends the cached Cholesky factor with the new
  target rows (:func:`~repro.gp.linalg.cholesky_append_rows`) and
  recomputes the standardization constants and ``alpha`` — the posterior
  is *identical* (to floating-point roundoff) to a from-scratch refit
  with the same hyperparameters.
- :meth:`register_pool` / :meth:`predict_pool` cache the pool-vs-train
  cross-covariance ``K*`` and the whitened block ``V = L^-1 K*^T``;
  updates extend both by the new columns/rows only, so a pool prediction
  costs O(n·p) instead of a fresh kernel evaluation plus an O(n^2 p)
  triangular solve.

Numerical safety: the initial fit's escalated jitter is carried onto the
appended diagonal so the extended factor matches the fitted covariance,
and whenever the Schur complement of an append is not positive definite
the model transparently falls back to an exact jittered refactorization
(``last_update_fallback`` is set so callers can count these).  Because
hyperparameter refits rebuild everything from scratch anyway, error from
long append chains cannot accumulate past one re-optimization cadence.

The mixin's one user, :class:`~repro.gp.task_gp._TaskGP`, maintains
``_X``, ``_L``, ``_alpha``, ``_y_mean``, ``_y_std`` (the fit state) plus
``_y_raw`` and ``_jitter``, and implements the covariance hooks
(``_cross_cov``, ``_cov_new_block``, ``_cov_full``, ``_prior_diag``,
``_predict_noise``, ``_append_data``, ``_cov_params``,
``_adopt_structure``).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular

from .linalg import (
    NotPositiveDefiniteError,
    cholesky_append_rows,
    cholesky_solve,
    robust_cholesky,
)


class IncrementalGPMixin:
    """Exact incremental updates + cached pool prediction for GP models."""

    # Incremental bookkeeping (instance attributes shadow these).
    _y_raw: np.ndarray | None = None
    _jitter: float = 0.0
    _pool_X: np.ndarray | None = None
    _pool_K: np.ndarray | None = None
    _pool_V: np.ndarray | None = None
    _pool_block: int = 0
    _pool_dtype: type | None = None
    #: Whether the last :meth:`update` call had to fall back to an exact
    #: from-scratch refactorization (jitter escalation).
    last_update_fallback: bool = False

    # ---- shared-factor support ---------------------------------------

    def covariance_signature(self) -> tuple:
        """Signature deciding whether two models share one covariance.

        Two models of the same class with equal signatures fitted on the
        same training inputs build the *same* ``K`` matrix — one
        Cholesky factorization serves both, only the per-model RHS
        solves (``alpha``) differ.
        """
        return (type(self).__name__, self._cov_params())

    def adopt_fit(
        self, lead: "IncrementalGPMixin", y: np.ndarray
    ) -> "IncrementalGPMixin":
        """Refit by adopting a lead model's factorization (shared factor).

        Equivalent to calling ``fit`` with ``optimize`` off on the same
        stacked inputs and this model's own ``y`` — but the covariance
        and its Cholesky factor are taken from ``lead`` instead of being
        recomputed, so only the standardization and the ``alpha`` solve
        run per model.  Bit-identical to an independent fit because it
        deduplicates computations that would produce the same bits; the
        caller must have checked :meth:`covariance_signature` equality.

        Args:
            lead: A freshly fitted model with an identical covariance.
            y: This model's stacked raw targets (sources-then-target
                order, exactly what its own ``fit`` would see).

        Returns:
            ``self``.

        Raises:
            RuntimeError: If ``lead`` is not fitted.
            ValueError: If ``y`` does not match the lead's row count.
        """
        if not lead.is_fitted:  # type: ignore[attr-defined]
            raise RuntimeError("adopt_fit() from an unfitted lead")
        assert lead._y_raw is not None
        y = np.asarray(y, dtype=float).ravel()
        if len(y) != len(lead._y_raw):
            raise ValueError(
                f"y has {len(y)} rows, lead was fitted on "
                f"{len(lead._y_raw)}"
            )
        self._adopt_structure(lead)
        self._L = lead._L
        self._jitter = lead._jitter
        self._y_raw = y.copy()
        self._restandardize()
        self._invalidate_pool_cache()
        self.last_update_fallback = False
        return self

    def adopt_update(
        self,
        lead: "IncrementalGPMixin",
        X_new: np.ndarray,
        y_new: np.ndarray,
    ) -> "IncrementalGPMixin":
        """Absorb new observations by adopting a lead model's update.

        The border-extended factor and the extended pool caches depend
        only on the (shared) covariance, never on ``y`` — alias them
        from ``lead`` and redo just the per-model bookkeeping: append
        the data, refresh standardization and ``alpha``.  Only valid
        right after a *successful* ``lead.update`` with an identical
        covariance signature.

        Args:
            lead: The model whose ``update`` just absorbed ``X_new``.
            X_new: ``(k, d)`` new target inputs (same rows the lead
                absorbed).
            y_new: Length-``k`` new observations for *this* metric.

        Returns:
            ``self``.

        Raises:
            RuntimeError: If called before ``fit``.
        """
        if not self.is_fitted:  # type: ignore[attr-defined]
            raise RuntimeError("adopt_update() before fit()")
        X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
        y_new = np.asarray(y_new, dtype=float).ravel()
        self.last_update_fallback = bool(lead.last_update_fallback)
        if len(y_new) == 0:
            return self
        self._append_data(X_new, y_new)
        self._L = lead._L
        self._jitter = lead._jitter
        self._restandardize()
        self._pool_K = lead._pool_K
        self._pool_V = lead._pool_V
        return self

    # ---- incremental update ------------------------------------------

    def update(self, X_new: np.ndarray, y_new: np.ndarray):
        """Absorb new *target-task* observations without refitting.

        Extends the Cholesky factor by a border update and refreshes the
        standardization constants and ``alpha``; hyperparameters are
        left untouched.  The result is numerically equivalent to calling
        ``fit`` on the concatenated data with ``optimize=False``.

        Args:
            X_new: ``(k, d)`` new target inputs.
            y_new: Length-``k`` new target observations (original
                scale).

        Returns:
            ``self``.

        Raises:
            RuntimeError: If called before ``fit``.
            ValueError: On shape mismatch.
        """
        if not self.is_fitted:  # type: ignore[attr-defined]
            raise RuntimeError("update() before fit()")
        assert self._X is not None and self._L is not None
        assert self._y_raw is not None
        X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
        y_new = np.asarray(y_new, dtype=float).ravel()
        if len(X_new) != len(y_new):
            raise ValueError("X_new and y_new misaligned")
        self.last_update_fallback = False
        if len(y_new) == 0:
            return self
        if X_new.shape[1] != self._X.shape[1]:
            raise ValueError("dimensionality mismatch")

        n_old = len(self._L)
        k = len(y_new)
        K_cross = self._cross_cov(X_new).T  # (n_old, k)
        K_block = self._cov_new_block(X_new)
        if self._jitter:
            K_block = K_block + self._jitter * np.eye(k)
        try:
            L_ext = cholesky_append_rows(self._L, K_cross, K_block)
        except NotPositiveDefiniteError:
            # Jitter escalation: rebuild the exact factorization so the
            # posterior never silently drifts.
            self._append_data(X_new, y_new)
            self._refit_state()
            self.last_update_fallback = True
            return self

        self._append_data(X_new, y_new)
        self._L = L_ext
        self._restandardize()
        if self._pool_K is not None and self._pool_V is not None:
            rows = slice(n_old, n_old + k)
            C = L_ext[n_old:, :n_old]
            L22 = L_ext[n_old:, n_old:]
            p = len(self._pool_X)
            block = self._pool_block
            if not block or p <= block:
                Kp_new = self._cross_cov(self._pool_X, rows)  # (p, k)
                V_new = solve_triangular(
                    L22, Kp_new.T - C @ self._pool_V, lower=True
                )
            else:
                # Large pools: extend the caches block-by-block so the
                # kernel's (pool, new, dim) broadcast intermediate and
                # any float32→float64 promotion stay block-sized.
                Kp_new = np.empty((p, k))
                V_new = np.empty((k, p))
                for s in range(0, p, block):
                    e = min(s + block, p)
                    Kb = self._cross_cov(self._pool_X[s:e], rows)
                    Kp_new[s:e] = Kb
                    Vb = np.asarray(
                        self._pool_V[:, s:e], dtype=np.float64
                    )
                    V_new[:, s:e] = solve_triangular(
                        L22, Kb.T - C @ Vb, lower=True
                    )
            if self._pool_dtype is not None:
                Kp_new = Kp_new.astype(self._pool_dtype)
                V_new = V_new.astype(self._pool_dtype)
            self._pool_K = np.hstack([self._pool_K, Kp_new])
            self._pool_V = np.vstack([self._pool_V, V_new])
        return self

    def _restandardize(self) -> None:
        """Refresh standardization constants and ``alpha`` from raw y."""
        assert self._y_raw is not None and self._L is not None
        y = self._y_raw
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0
        z = (y - self._y_mean) / self._y_std
        self._alpha = cholesky_solve(self._L, z)

    def _refit_state(self) -> None:
        """Exact posterior refresh from the current hyperparameters."""
        K = self._cov_full()
        self._L, self._jitter = robust_cholesky(K)
        self._restandardize()
        self._invalidate_pool_cache()

    # ---- cached pool prediction --------------------------------------

    def register_pool(
        self,
        X_pool: np.ndarray,
        block: int = 0,
        dtype: type | None = None,
    ) -> None:
        """Attach a fixed candidate pool for cached prediction.

        Args:
            X_pool: ``(p, d)`` target-task candidate features; rows are
                addressed by index in :meth:`predict_pool`.
            block: Row-chunk size for building/extending the caches;
                pools at or below the block (or ``block=0``) use the
                exact single-shot path.
            dtype: Optional storage dtype for the caches (e.g.
                ``np.float32``); all solves stay float64, only the
                stored blocks are narrowed.
        """
        self._pool_X = np.atleast_2d(np.asarray(X_pool, dtype=float))
        self._pool_block = int(block)
        self._pool_dtype = dtype
        self._invalidate_pool_cache()

    def extend_pool(self, X_new: np.ndarray, cache: bool = True) -> None:
        """Append candidate rows to the registered pool (append path).

        The adaptive-refinement counterpart of :meth:`update`: where
        ``update`` extends the caches by new *training* columns, this
        extends them by new *pool* rows.  Only the appended rows' cross-
        covariance (``(k, n)``) and whitened columns (``(n, k)``) are
        computed — the existing caches are never rebuilt, so growing the
        pool costs O(k·n²) instead of O(p·n²).

        Args:
            X_new: ``(k, d)`` new target-task candidate features,
                appended after the existing pool rows (indices continue
                from ``len(pool)``).
            cache: Extend the prediction caches in place when they are
                materialized.  ``False`` extends only the pool features
                and invalidates the caches — used by the shared-factor
                path, where followers adopt the lead model's extended
                caches instead of recomputing identical blocks.

        Raises:
            RuntimeError: If no pool is registered.
            ValueError: On dimensionality mismatch.
        """
        if self._pool_X is None:
            raise RuntimeError("extend_pool() before register_pool()")
        X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
        if X_new.size == 0:
            return
        if X_new.shape[1] != self._pool_X.shape[1]:
            raise ValueError("dimensionality mismatch")
        have_cache = (
            cache
            and self._pool_K is not None
            and self._pool_V is not None
            and self._L is not None
        )
        self._pool_X = np.vstack([self._pool_X, X_new])
        if not have_cache:
            # No live caches to extend (pre-first-prediction, or a
            # follower about to adopt the lead's): rebuild lazily.
            self._invalidate_pool_cache()
            return
        k = len(X_new)
        n = len(self._L)
        block = self._pool_block
        if not block or k <= block:
            K_new = self._cross_cov(X_new)
            V_new = solve_triangular(self._L, K_new.T, lower=True)
        else:
            K_new = np.empty((k, n))
            V_new = np.empty((n, k))
            for s in range(0, k, block):
                e = min(s + block, k)
                Kb = self._cross_cov(X_new[s:e])
                K_new[s:e] = Kb
                V_new[:, s:e] = solve_triangular(
                    self._L, Kb.T, lower=True
                )
        if self._pool_dtype is not None:
            K_new = K_new.astype(self._pool_dtype)
            V_new = V_new.astype(self._pool_dtype)
        self._pool_K = np.vstack([
            self._pool_K,
            K_new.astype(self._pool_K.dtype, copy=False),
        ])
        self._pool_V = np.hstack([
            self._pool_V,
            V_new.astype(self._pool_V.dtype, copy=False),
        ])

    def _invalidate_pool_cache(self) -> None:
        self._pool_K = None
        self._pool_V = None

    def _ensure_pool_cache(self) -> None:
        """Materialize the pool cross-covariance / whitened caches."""
        if self._pool_K is not None and self._pool_V is not None:
            return
        assert self._pool_X is not None and self._L is not None
        p = len(self._pool_X)
        block = self._pool_block
        if not block or p <= block:
            # The exact single-shot path (bit-identical to the
            # pre-blocking behavior for every small pool).
            K = self._cross_cov(self._pool_X)
            V = solve_triangular(self._L, K.T, lower=True)
            if self._pool_dtype is not None:
                K = K.astype(self._pool_dtype)
                V = V.astype(self._pool_dtype)
        else:
            n = len(self._L)
            dtype = self._pool_dtype or np.float64
            K = np.empty((p, n), dtype=dtype)
            V = np.empty((n, p), dtype=dtype)
            for s in range(0, p, block):
                e = min(s + block, p)
                Kb = self._cross_cov(self._pool_X[s:e])
                K[s:e] = Kb
                V[:, s:e] = solve_triangular(
                    self._L, Kb.T, lower=True
                )
        self._pool_K = K
        self._pool_V = V

    def predict_pool(
        self, indices: np.ndarray, include_noise: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean/variance at registered pool rows ``indices``.

        Numerically equivalent to ``predict(X_pool[indices])`` but served
        from the cached cross-covariance and whitened blocks: after each
        incremental update only the new columns are computed, so the
        per-iteration cost is O(n·p) rather than a fresh kernel
        evaluation plus an O(n^2 p) solve.

        Args:
            indices: Integer row indices (or boolean mask) into the
                registered pool.
            include_noise: Add the target observation-noise variance.

        Returns:
            ``(mean, variance)`` in the original target scale.

        Raises:
            RuntimeError: If the model is unfitted or no pool is
                registered.
        """
        if not self.is_fitted:  # type: ignore[attr-defined]
            raise RuntimeError("predict_pool() before fit()")
        if self._pool_X is None:
            raise RuntimeError("predict_pool() before register_pool()")
        assert self._L is not None and self._alpha is not None
        self._ensure_pool_cache()
        idx = np.asarray(indices)
        if idx.dtype == bool:
            idx = np.nonzero(idx)[0]
        K_rows = self._pool_K[idx]
        V_cols = self._pool_V[:, idx]
        if V_cols.dtype == np.float64:
            mean_z = K_rows @ self._alpha
            var_z = self._prior_diag(self._pool_X[idx]) - np.sum(
                V_cols * V_cols, axis=0
            )
        else:
            # float32 caches: accumulate the quadratic forms in float64
            # so the posterior variance stays stable near zero.
            mean_z = K_rows @ self._alpha
            var_z = self._prior_diag(self._pool_X[idx]) - np.einsum(
                "ij,ij->j", V_cols, V_cols, dtype=np.float64
            )
        var_z = np.maximum(var_z, 1e-12)
        if include_noise:
            var_z = var_z + self._predict_noise()
        return (
            mean_z * self._y_std + self._y_mean,
            var_z * self._y_std**2,
        )


def predict_pool_multi(
    models: list,
    indices: np.ndarray,
    include_noise: bool = False,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Pool predictions for models sharing one covariance structure.

    The first model's caches are materialized once and aliased onto the
    followers — valid only when every model's
    :meth:`IncrementalGPMixin.covariance_signature` is identical (the
    calibration engine checks this before enabling sharing).  With
    equal signatures the aliased arrays hold exactly the values each
    follower would have computed itself, so results are bit-identical
    to per-model :meth:`IncrementalGPMixin.predict_pool` calls.

    Args:
        models: Fitted models; the first is the cache lead.
        indices: Integer pool indices (or boolean mask).
        include_noise: Add each model's observation-noise variance.

    Returns:
        One ``(mean, variance)`` pair per model.
    """
    lead = models[0]
    if not lead.is_fitted:
        raise RuntimeError("predict_pool_multi() before fit()")
    if lead._pool_X is None:
        raise RuntimeError("predict_pool_multi() before register_pool()")
    lead._ensure_pool_cache()
    for follower in models[1:]:
        follower._pool_K = lead._pool_K
        follower._pool_V = lead._pool_V
    return [
        model.predict_pool(indices, include_noise=include_noise)
        for model in models
    ]


__all__ = ["IncrementalGPMixin", "predict_pool_multi"]
