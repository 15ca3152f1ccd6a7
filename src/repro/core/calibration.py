"""Incremental GP calibration engine for the tuning loop.

Algorithm 1 calibrates one surrogate per QoR metric every iteration on
data that only grows by the freshly evaluated target points.  The engine
decides, per iteration, between two numerically equivalent paths:

- **Exact path** — a full ``fit`` per metric (kernel re-evaluation +
  refactorization), used for the initial calibration, on every
  hyperparameter re-optimization cadence tick (``reopt_every``,
  warm-started from the previous optimum inside the models), and when
  :class:`PPATunerConfig.incremental` is off.
- **Fast path** — ``update`` per metric: the new evaluations extend the
  cached Cholesky factor via rank-1 border updates and the cached
  pool cross-covariance/whitened blocks by the new columns only (see
  :mod:`repro.gp.incremental`).  If an update's Schur complement is not
  positive definite the model falls back to an exact refactorization on
  its own; the engine records the event in :attr:`CalibrationStats`.

On either path, when :class:`PPATunerConfig.shared_factor` is on and
every model reports the same covariance signature (same kernel family
and hyperparameters — true until re-optimization diverges them), the
engine factors the shared covariance **once** on a lead model and the
remaining metrics adopt it, redoing only their per-metric RHS solves;
the pool prediction caches are likewise built once and aliased.  This
is bit-identical to independent per-model fits because it deduplicates
computations that would produce the same bits.

Predictions over the candidate pool always go through the models'
``predict_pool`` so both paths share one code path (equivalence-tested
in ``tests/test_calibration_equivalence.py`` and
``tests/test_fastpath_equivalence.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..gp.incremental import predict_pool_multi
from ..obs.events import CalibrationDone
from ..obs.recorder import NULL_RECORDER
from .config import PPATunerConfig


@dataclass
class CalibrationStats:
    """Counters of the engine's calibration activity.

    Attributes:
        n_full_fits: Per-model exact ``fit`` calls (shared-factor
            adoptions count too — the posterior refresh happened).
        n_incremental: Per-model fast-path ``update`` calls (including
            shared-factor adoptions).
        n_fallbacks: Updates that fell back to an exact refactorization
            (jitter escalation).
        n_reopts: Per-model hyperparameter re-optimizations.
        n_shared_fits: Full fits served by adopting the lead model's
            factorization instead of refactorizing.
        n_shared_updates: Incremental updates served by adopting the
            lead model's border update.
    """

    n_full_fits: int = 0
    n_incremental: int = 0
    n_fallbacks: int = 0
    n_reopts: int = 0
    n_shared_fits: int = 0
    n_shared_updates: int = 0


class CalibrationEngine:
    """Per-iteration surrogate calibration with an incremental fast path.

    Example:
        >>> engine = CalibrationEngine(models, cfg,
        ...                            sources=[(Xs, Ys)])   # doctest: +SKIP
        >>> engine.register_pool(Xn_pool)                    # doctest: +SKIP
        >>> engine.calibrate(t, Xn_pool, sampled, y_obs, new) # doctest: +SKIP
        >>> mean, std = engine.predict(active_ids)            # doctest: +SKIP
    """

    def __init__(
        self,
        models: list,
        config: PPATunerConfig,
        sources: list[tuple[np.ndarray, np.ndarray]],
        recorder=None,
    ) -> None:
        """Create the engine.

        Args:
            models: One fitted-or-fresh GP model per QoR metric.
            config: Loop configuration (cadence and engine switches).
            sources: Normalized ``(X_k, Y_k)`` archives; every model
                ``fit`` gets them per metric as ``sources=``.
            recorder: Optional :class:`~repro.obs.recorder.TraceRecorder`
                fed one ``CalibrationDone`` per :meth:`calibrate` call.
        """
        self.models = models
        self.config = config
        self.sources = sources
        self.stats = CalibrationStats()
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self._fitted = False
        self._shared_active = False
        # Whether every model currently holds the *same* training rows.
        # Partial QoR reports train each metric on its own observed
        # subset; sharing a factor then would pair one metric's alpha
        # with another metric's covariance.  A non-partial full fit
        # re-establishes equality.
        self._same_rows = False

    def register_pool(self, X_pool: np.ndarray) -> None:
        """Attach the fixed candidate pool to every model.

        The config's ``pool_block``/``float32_pool`` switches are
        threaded through so large pools build their prediction caches
        in cache-sized blocks (optionally stored float32).
        """
        cfg = self.config
        dtype = np.float32 if cfg.float32_pool else None
        for model in self.models:
            model.register_pool(
                X_pool, block=cfg.pool_block, dtype=dtype
            )

    def extend_pool(self, X_new: np.ndarray) -> None:
        """Append refined candidates to every model's pool (append path).

        Adaptive pool refinement grows the candidate table mid-run; the
        prediction caches are extended by the new rows only — never
        rebuilt (see :meth:`~repro.gp.incremental.IncrementalGPMixin.extend_pool`).
        Under an active shared factor the appended cache blocks are
        computed once on the lead model and adopted by the followers
        (identical signatures produce identical blocks).
        """
        X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
        if X_new.size == 0:
            return
        if self._shared_active and self._sharing_possible():
            lead = self.models[0]
            lead.extend_pool(X_new)
            for model in self.models[1:]:
                model.extend_pool(X_new, cache=False)
                model._pool_K = lead._pool_K
                model._pool_V = lead._pool_V
        else:
            for model in self.models:
                model.extend_pool(X_new)

    def _sharing_possible(self) -> bool:
        """Whether one Cholesky factorization can serve every model.

        True when the config allows sharing and every model reports the
        same covariance signature — same kernel family and
        hyperparameters, same noise structure — so fitting them on the
        same stacked inputs builds the *same* covariance matrix.
        Hyperparameter re-optimization diverges the signatures (each
        metric's likelihood pulls differently), after which this
        returns False until they coincide again.
        """
        if not self.config.shared_factor or len(self.models) < 2:
            return False
        sigs = [m.covariance_signature() for m in self.models]
        return all(s == sigs[0] for s in sigs[1:])

    def _stacked_y(
        self, j: int, y_obs: np.ndarray, sampled: np.ndarray
    ) -> np.ndarray:
        """The stacked sources-then-target y a metric-``j`` fit sees."""
        parts = [Ys[:, j] for _, Ys in self.sources if len(Ys)]
        parts = parts + [y_obs[sampled, j]]
        return np.concatenate(
            [np.asarray(p, dtype=float).ravel() for p in parts]
        )

    def _sources(self, j: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """The ``sources=`` argument of a metric-``j`` fit."""
        return [(Xs, Ys[:, j]) for Xs, Ys in self.sources]

    def calibrate(
        self,
        t: int,
        X_pool: np.ndarray,
        sampled: np.ndarray,
        y_obs: np.ndarray,
        new_indices: list[int],
    ) -> None:
        """Bring every surrogate up to date with the evaluated data.

        Args:
            t: Iteration counter (drives the re-optimization cadence).
            X_pool: ``(n, d)`` normalized candidate features.
            sampled: Mask of evaluated candidates.
            y_obs: ``(n, m)`` observed objectives (NaN where unsampled).
            new_indices: Pool indices evaluated since the previous
                :meth:`calibrate` call (the fast path absorbs exactly
                these).
        """
        cfg = self.config
        cadence = cfg.reopt_every
        reopt = cadence > 0 and (t % cadence) == 0
        fast = (
            cfg.incremental
            and self._fitted
            and not reopt
            and all(m.is_fitted for m in self.models)
        )
        recorder = self.recorder
        start = time.perf_counter() if recorder else 0.0
        fallbacks_before = self.stats.n_fallbacks
        if fast:
            if not new_indices:
                # No new evidence; the posterior is current.
                if recorder:
                    recorder.emit(CalibrationDone(
                        iteration=t,
                        path="noop",
                        n_models=len(self.models),
                        n_new=0,
                        n_fallbacks=0,
                        reopt=False,
                        seconds=time.perf_counter() - start,
                    ))
                return
            idx = np.asarray(new_indices, dtype=int)
            X_new = X_pool[idx]
            partial = bool(np.isnan(y_obs[idx]).any())
            if partial:
                self._same_rows = False
            shared = (
                not partial
                and self._same_rows
                and self._sharing_possible()
            )
            if shared:
                # One border update on the lead model; followers adopt
                # its extended factor and pool caches and redo only the
                # per-metric alpha solve (bit-identical — identical
                # signatures mean identical matrices).
                lead = self.models[0]
                lead.update(X_new, y_obs[idx, 0])
                self.stats.n_incremental += 1
                if lead.last_update_fallback:
                    # Jitter escalation: the border update is invalid
                    # for every metric, so each follower runs its own
                    # exact (per-GP) refactorization.
                    self.stats.n_fallbacks += 1
                    for j, model in enumerate(self.models[1:], 1):
                        model.update(X_new, y_obs[idx, j])
                        self.stats.n_incremental += 1
                        if model.last_update_fallback:
                            self.stats.n_fallbacks += 1
                else:
                    for j, model in enumerate(self.models[1:], 1):
                        model.adopt_update(lead, X_new, y_obs[idx, j])
                        self.stats.n_incremental += 1
                        self.stats.n_shared_updates += 1
                self._shared_active = True
            else:
                self._shared_active = False
                for j, model in enumerate(self.models):
                    if partial:
                        # Partial QoR reports: absorb only the rows
                        # this metric was actually observed on.
                        keep = np.isfinite(y_obs[idx, j])
                        if not keep.any():
                            continue
                        model.update(X_new[keep], y_obs[idx[keep], j])
                    else:
                        model.update(X_new, y_obs[idx, j])
                    self.stats.n_incremental += 1
                    if model.last_update_fallback:
                        self.stats.n_fallbacks += 1
            if recorder:
                recorder.emit(CalibrationDone(
                    iteration=t,
                    path="incremental",
                    n_models=len(self.models),
                    n_new=len(idx),
                    n_fallbacks=self.stats.n_fallbacks - fallbacks_before,
                    reopt=False,
                    seconds=time.perf_counter() - start,
                ))
            return

        Xt = X_pool[sampled]
        partial = bool(np.isnan(y_obs[sampled]).any())
        # Re-optimization diverges the hyperparameters per metric, and
        # partial observations give each metric different training rows
        # — sharing applies only to plain same-structure refits.
        self._same_rows = not partial
        shared = not reopt and not partial and self._sharing_possible()
        if shared:
            lead = self.models[0]
            lead.optimize = False
            lead.fit(
                sources=self._sources(0), X_target=Xt,
                y_target=y_obs[sampled, 0],
            )
            self.stats.n_full_fits += 1
            for j, model in enumerate(self.models[1:], 1):
                model.optimize = False
                model.adopt_fit(
                    lead, self._stacked_y(j, y_obs, sampled)
                )
                self.stats.n_full_fits += 1
                self.stats.n_shared_fits += 1
            self._shared_active = True
        else:
            self._shared_active = False
            for j, model in enumerate(self.models):
                model.optimize = reopt
                # Both model kinds share the ``sources`` fit keyword;
                # the two-task model stacks the pairs into one source
                # task.
                src_j = self._sources(j)
                if partial:
                    mask = sampled & np.isfinite(y_obs[:, j])
                    model.fit(
                        sources=src_j, X_target=X_pool[mask],
                        y_target=y_obs[mask, j],
                    )
                else:
                    model.fit(
                        sources=src_j, X_target=Xt,
                        y_target=y_obs[sampled, j],
                    )
                self.stats.n_full_fits += 1
                if reopt:
                    self.stats.n_reopts += 1
        self._fitted = True
        if recorder:
            recorder.emit(CalibrationDone(
                iteration=t,
                path="full",
                n_models=len(self.models),
                n_new=len(new_indices),
                n_fallbacks=0,
                reopt=reopt,
                seconds=time.perf_counter() - start,
            ))

    def predict(
        self, indices: np.ndarray, include_noise: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean/std per metric at registered pool ``indices``.

        Args:
            indices: Integer pool indices (or boolean mask).
            include_noise: Add observation noise to the variances.

        Returns:
            ``(mean, std)`` arrays of shape ``(len(indices), m)``.
        """
        idx = np.asarray(indices)
        if idx.dtype == bool:
            idx = np.nonzero(idx)[0]
        m = len(self.models)
        if self._shared_active and m > 1:
            # Sharing is live: the pool caches are identical across the
            # models, so materialize the lead's once and alias it.
            results = predict_pool_multi(
                self.models, idx, include_noise=include_noise
            )
        else:
            results = [
                model.predict_pool(idx, include_noise=include_noise)
                for model in self.models
            ]
        mean = np.empty((len(idx), m))
        std = np.empty_like(mean)
        for j, (mu, var) in enumerate(results):
            mean[:, j] = mu
            std[:, j] = np.sqrt(var)
        return mean, std


__all__ = ["CalibrationEngine", "CalibrationStats"]
