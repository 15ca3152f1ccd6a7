"""Configuration of the PPATuner loop."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from ..reliability.policy import FaultPolicy


@dataclass
class PPATunerConfig:
    """Hyperparameters of Algorithm 1.

    Attributes:
        tau: Uncertainty-region scaling (Eq. (9)); the hyper-rectangle
            half-width is ``sqrt(tau) * sigma``.
        delta_rel: Relaxation vector δ (Eq. (11)/(12)) as a *fraction of
            each objective's observed range*; the absolute δ is derived
            from the initialization data.  Scalar applies to all
            objectives.
        batch_size: Configurations sent to the tool per iteration (the
            paper's parallel-license batch trials).
        q: Candidates proposed per synchronous round by the *batched*
            selection rule.  ``q=1`` (default) is the paper's serial
            Eq. (13) rule and is bit-identical to the pre-batching
            trajectory.  ``q>1`` switches to greedy max-diameter
            selection with fantasy collapse and a pairwise distance
            penalty (see :func:`~repro.core.selection.select_batch`) so
            one batch spreads across the live front instead of
            clustering, and ``ask()`` hands back up to ``q`` pending
            indices to evaluate concurrently.
        q_penalty: Strength of the batch diversity penalty; candidate
            scores are damped by ``1 - exp(-dist / (q_penalty * scale))``
            against already-chosen batch members.  Larger values push
            picks further apart.  Ignored when ``q=1``.
        pool_refine_every: Adaptive candidate-pool refinement cadence:
            every this many loop iterations, spawn fresh LHS points
            zoomed around the surviving (live, non-collapsed)
            uncertainty rectangles and append them to the candidate
            pool (incremental cache append — no rebuild).  ``0``
            (default) disables refinement; the pool stays the fixed
            offline table.
        pool_refine_points: New candidates appended per refinement
            round.
        pool_zoom: Half-width of each zoom box, as a fraction of the
            parameter-space span, centred on a live anchor candidate.
        max_iterations: ``T_max``.
        kernel: Base kernel family (``"rbf"`` or ``"matern52"``).
        reopt_every: Re-optimize GP hyperparameters every this many
            iterations (posteriors are refreshed every iteration);
            refits are warm-started from the previous optimum and
            trigger an exact refactorization.  ``0`` disables
            re-optimization after the initial fit entirely.
        incremental: Use the incremental calibration engine — between
            re-optimizations new evaluations extend the cached Cholesky
            factor (rank-1 border updates) and the cached pool
            cross-covariance instead of refitting from scratch.  The
            posterior is numerically equivalent; set ``False`` to force
            the exact from-scratch path every iteration.
        shared_factor: Share one Cholesky factorization (and the pool
            cross-covariance caches) across the per-metric GPs whenever
            their covariance hyperparameters are identical — the same X
            and kernel structure mean the factor is computed once and
            only the per-metric RHS solves differ.  Bit-identical to the
            per-model path (it deduplicates identical computations);
            automatically inapplicable once hyperparameter
            re-optimization makes the per-metric covariances diverge.
            Set ``False`` to force fully independent per-GP fits (the
            reference path for the equivalence harness).
        float32_pool: Opt-in float32 storage for the pool prediction
            caches (cross-covariance and whitened blocks).  Halves the
            cache memory so pools of 10^5-10^6 candidates stay
            cache/memory friendly; posterior means/variances move by at
            most ~1e-5 relative (the Cholesky factor and all training
            state stay float64).  Off by default — the float64 path is
            the bit-exact reference.
        pool_block: Row-chunk size for building (and extending) the pool
            prediction caches.  Pools larger than this are evaluated in
            blocks so the kernel's ``(pool, train, dim)`` broadcast
            intermediate never materializes at full pool size.  ``0``
            disables blocking.  Pools at or below the block size use the
            exact pre-blocking code path.
        decision_backend: Implementation of the δ-dominance decision
            pass: ``"vectorized"`` (blocked, cache-friendly whole-pool
            reductions; the default) or ``"reference"`` (the retained
            pre-optimization implementation).  Both return identical
            index sets; the reference backend exists for the
            equivalence harness and as the benchmark baseline.
        n_restarts: Hyperparameter-optimizer restarts.
        transfer: If False, source data is ignored (ablation switch).
        noise_in_regions: Include the learned observation-noise variance
            in the uncertainty rectangles (wider, slower, noise-robust
            decisions); default reasons with epistemic uncertainty only.
        pareto_delta_scale: Multiplier on δ for the Pareto-classification
            rule (Eq. (12)).  Classification errors are repaired by the
            final tool verification while wrong drops are permanent, so
            classifying more generously than dropping is safe.
        seed: RNG seed for initial sampling and tie-breaking.
        init_fraction: Fraction of the target pool evaluated during
            initialization (the paper uses "no more than 5%").
        min_init: Lower bound on initial target evaluations.
        warm_start: How the initial design is drawn when no explicit
            ``init_indices`` are given.  ``"random"`` (default) is the
            paper's uniform draw and is bit-identical to the
            pre-warm-start trajectory; ``"copula"`` ranks pool
            candidates through a Gaussian copula fitted on the source
            archives and blends copula-anchored seeds with a uniform
            fill (see :func:`repro.copula.copula_warm_start_indices`)
            — the few-shot cold-start path.  With no source data the
            copula option falls back to the random draw.
        fault_policy: How evaluation failures are retried, broken and
            quarantined (see :class:`~repro.reliability.FaultPolicy`).
            The default policy retries transients and quarantines
            permanently failed candidates; ``None`` disables the
            resilience layer entirely — the oracle is called bare and
            every failure propagates.
    """

    tau: float = 16.0
    delta_rel: float | np.ndarray = 0.01
    batch_size: int = 1
    q: int = 1
    q_penalty: float = 1.0
    pool_refine_every: int = 0
    pool_refine_points: int = 16
    pool_zoom: float = 0.1
    max_iterations: int = 500
    kernel: str = "rbf"
    reopt_every: int = 10
    incremental: bool = True
    shared_factor: bool = True
    float32_pool: bool = False
    pool_block: int = 32768
    decision_backend: str = "vectorized"
    n_restarts: int = 1
    transfer: bool = True
    noise_in_regions: bool = False
    pareto_delta_scale: float = 3.0
    seed: int = 0
    init_fraction: float = 0.02
    min_init: int = 5
    fault_policy: FaultPolicy | None = field(default_factory=FaultPolicy)
    warm_start: str = "random"

    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if np.any(np.asarray(self.delta_rel) < 0):
            raise ValueError("delta_rel must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.q < 1:
            raise ValueError("q must be >= 1")
        if self.q_penalty <= 0:
            raise ValueError("q_penalty must be positive")
        if self.pool_refine_every < 0:
            raise ValueError("pool_refine_every must be >= 0 (0 = off)")
        if self.pool_refine_points < 1:
            raise ValueError("pool_refine_points must be >= 1")
        if not 0.0 < self.pool_zoom <= 1.0:
            raise ValueError("pool_zoom must be in (0, 1]")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 < self.init_fraction <= 1.0:
            raise ValueError("init_fraction must be in (0, 1]")
        if self.min_init < 1:
            raise ValueError("min_init must be >= 1")
        if self.reopt_every < 0:
            raise ValueError("reopt_every must be >= 0 (0 = never)")
        if self.pool_block < 0:
            raise ValueError("pool_block must be >= 0 (0 = unblocked)")
        if self.decision_backend not in ("vectorized", "reference"):
            raise ValueError(
                "decision_backend must be 'vectorized' or 'reference'"
            )
        if self.warm_start not in ("random", "copula"):
            raise ValueError(
                "warm_start must be 'random' or 'copula'"
            )
        if isinstance(self.fault_policy, dict):
            self.fault_policy = FaultPolicy.from_json(self.fault_policy)

    def to_json(self) -> dict:
        """Fully JSON-serializable dict (session snapshots, service).

        ``extra`` must itself be JSON-serializable; a vector
        ``delta_rel`` becomes a list and is restored as an array.
        """
        delta = self.delta_rel
        if isinstance(delta, np.ndarray):
            delta = [float(v) for v in delta.ravel()]
        else:
            delta = float(delta)
        return {
            "tau": float(self.tau),
            "delta_rel": delta,
            "batch_size": int(self.batch_size),
            "q": int(self.q),
            "q_penalty": float(self.q_penalty),
            "pool_refine_every": int(self.pool_refine_every),
            "pool_refine_points": int(self.pool_refine_points),
            "pool_zoom": float(self.pool_zoom),
            "max_iterations": int(self.max_iterations),
            "kernel": self.kernel,
            "reopt_every": int(self.reopt_every),
            "incremental": bool(self.incremental),
            "shared_factor": bool(self.shared_factor),
            "float32_pool": bool(self.float32_pool),
            "pool_block": int(self.pool_block),
            "decision_backend": self.decision_backend,
            "n_restarts": int(self.n_restarts),
            "transfer": bool(self.transfer),
            "noise_in_regions": bool(self.noise_in_regions),
            "pareto_delta_scale": float(self.pareto_delta_scale),
            "seed": int(self.seed),
            "init_fraction": float(self.init_fraction),
            "min_init": int(self.min_init),
            "fault_policy": (
                None if self.fault_policy is None
                else self.fault_policy.to_json()
            ),
            "warm_start": self.warm_start,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "PPATunerConfig":
        """Rebuild from :meth:`to_json` output.

        Unknown keys are rejected (a snapshot from a newer layout should
        fail loudly, not half-apply); ``__post_init__`` revalidates and
        revives the fault-policy dict.

        Raises:
            ValueError: On keys that are not config fields, named in
                the message.
        """
        data = dict(payload)
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        delta = data.get("delta_rel")
        if isinstance(delta, list):
            data["delta_rel"] = np.asarray(delta, dtype=float)
        return cls(**data)
