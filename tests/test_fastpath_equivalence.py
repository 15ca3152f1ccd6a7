"""Equivalence harness for the hot-path fast implementations.

Every raw-speed path added by the hot-path PR — the blocked vectorized
non-dominated sweep, the blocked δ-domination reduction, the batched
rectangle intersection/collapse, the shared Cholesky factor across the
per-metric GPs, and the float32 pool prediction caches — is locked to
the retained reference implementations here:

- vectorized δ-dominance / intersection / collapse return *identical*
  index sets to the scalar per-point oracles in
  :mod:`repro.core.reference`, across random pools, degenerate
  (zero-width) rectangles, exact ties, and NaN-imputed rows;
- shared-factor posteriors equal fully independent per-GP fits to
  <= 1e-10 (they are bit-identical by construction: sharing only
  deduplicates computations that would produce the same bits);
- the float32 cache stays within its documented tolerance and never
  changes the selected/Pareto index sets on seeded golden trajectories;
- a shared border update that hits a non-positive-definite Schur
  complement falls back to per-GP refactorization without crashing,
  flagged via ``last_update_fallback``;
- the default configuration produces the same trace-event stream as
  the pre-PR per-model path (wall-clock fields excluded).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import PoolOracle, PPATuner, PPATunerConfig
from repro.core.calibration import CalibrationEngine
from repro.core.decision import _DOM_BLOCK, _dominated_by_any, apply_decision_rules
from repro.core.reference import (
    dominated_by_any_reference,
    dominated_by_any_scalar,
    intersect_scalar,
    non_dominated_mask_scalar,
)
from repro.core.uncertainty import UncertaintyRegions
from repro.gp import (
    MultiSourceTransferGP,
    NotPositiveDefiniteError,
    RBFKernel,
    TransferGP,
)
from repro.obs import MemorySink, TraceRecorder
from repro.pareto import non_dominated_mask, non_dominated_mask_reference

pytestmark = pytest.mark.fastpath

TOL_SHARED = 1e-10

moderate = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------


@st.composite
def objective_pools(draw):
    """Random objective matrices with ties, duplicates and NaN rows."""
    seed = draw(st.integers(0, 10_000))
    n = draw(st.integers(0, 40))
    m = draw(st.integers(1, 4))
    quantize = draw(st.booleans())
    with_nans = draw(st.booleans())
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, m))
    if quantize:
        # Coarse rounding manufactures exact ties and duplicate rows.
        pts = np.round(pts, 1)
    if with_nans and n:
        pts[rng.random(n) < 0.2] = np.nan
    return pts


@st.composite
def domination_cases(draw):
    """Random (front, queries, slack) triples with overlapping ids."""
    seed = draw(st.integers(0, 10_000))
    nf = draw(st.integers(0, 25))
    nq = draw(st.integers(0, 25))
    m = draw(st.integers(1, 3))
    quantize = draw(st.booleans())
    rng = np.random.default_rng(seed)
    front = rng.normal(size=(nf, m))
    queries = rng.normal(size=(nq, m))
    if quantize:
        front, queries = np.round(front, 1), np.round(queries, 1)
    # Ids drawn from a small range so self-exclusion genuinely bites.
    front_ids = rng.integers(0, max(nf + nq, 1), size=nf)
    query_ids = rng.integers(0, max(nf + nq, 1), size=nq)
    slack = rng.uniform(0.0, 0.5, size=m)
    return front, front_ids, queries, query_ids, slack


@st.composite
def region_cases(draw):
    """Random uncertainty boxes: collapsed, unbounded, tied corners."""
    seed = draw(st.integers(0, 10_000))
    n = draw(st.integers(1, 30))
    m = draw(st.integers(1, 3))
    rng = np.random.default_rng(seed)
    lo = np.round(rng.normal(size=(n, m)), 1)
    width = rng.uniform(0.0, 1.0, size=(n, m))
    width[rng.random(n) < 0.3] = 0.0  # degenerate (collapsed) boxes
    hi = lo + width
    unbounded = rng.random(n) < 0.2
    lo[unbounded], hi[unbounded] = -np.inf, np.inf
    undecided = rng.random(n) < 0.6
    pareto = ~undecided & (rng.random(n) < 0.3)
    delta = rng.uniform(0.0, 0.3, size=m)
    return lo, hi, undecided, pareto, delta


# ---------------------------------------------------------------------
# vectorized dominance == reference == scalar oracle
# ---------------------------------------------------------------------


class TestNonDominatedMask:
    @given(objective_pools())
    @moderate
    def test_matches_reference_and_scalar(self, pts):
        fast = non_dominated_mask(pts)
        np.testing.assert_array_equal(
            fast, non_dominated_mask_reference(pts)
        )
        np.testing.assert_array_equal(
            fast, non_dominated_mask_scalar(pts)
        )

    @given(objective_pools(), st.integers(1, 7))
    @moderate
    def test_block_size_irrelevant(self, pts, block):
        """Tiny blocks force many cross-block survivor checks."""
        np.testing.assert_array_equal(
            non_dominated_mask(pts, block=block),
            non_dominated_mask_reference(pts),
        )

    def test_all_nan_and_empty(self):
        assert non_dominated_mask(np.empty((0, 2))).shape == (0,)
        pts = np.full((4, 2), np.nan)
        # NaN rows neither dominate nor are dominated: all kept.
        assert non_dominated_mask(pts).all()
        assert non_dominated_mask_scalar(pts).all()

    def test_exact_duplicates_all_kept(self):
        pts = np.array([[1.0, 2.0]] * 5 + [[0.5, 3.0]])
        np.testing.assert_array_equal(
            non_dominated_mask(pts), non_dominated_mask_scalar(pts)
        )
        assert non_dominated_mask(pts).all()


class TestDeltaDomination:
    @given(domination_cases())
    @moderate
    def test_matches_reference_and_scalar(self, case):
        front, fids, queries, qids, slack = case
        fast = _dominated_by_any(front, fids, queries, qids, slack)
        np.testing.assert_array_equal(
            fast,
            dominated_by_any_reference(front, fids, queries, qids, slack),
        )
        np.testing.assert_array_equal(
            fast,
            dominated_by_any_scalar(front, fids, queries, qids, slack),
        )

    @given(domination_cases(), st.integers(1, 5))
    @moderate
    def test_block_size_irrelevant(self, case, block):
        front, fids, queries, qids, slack = case
        np.testing.assert_array_equal(
            _dominated_by_any(
                front, fids, queries, qids, slack, block=block
            ),
            _dominated_by_any(
                front, fids, queries, qids, slack, block=_DOM_BLOCK
            ),
        )


class TestDecisionBackends:
    @given(region_cases())
    @moderate
    def test_identical_index_sets(self, case):
        lo, hi, undecided, pareto, delta = case
        regions_v = UncertaintyRegions(lo.copy(), hi.copy())
        regions_r = UncertaintyRegions(lo.copy(), hi.copy())
        drop_v, par_v = apply_decision_rules(
            regions_v, undecided, pareto, delta,
            pareto_delta=3.0 * delta, backend="vectorized",
        )
        drop_r, par_r = apply_decision_rules(
            regions_r, undecided, pareto, delta,
            pareto_delta=3.0 * delta, backend="reference",
        )
        np.testing.assert_array_equal(drop_v, drop_r)
        np.testing.assert_array_equal(par_v, par_r)

    def test_unknown_backend_rejected(self):
        regions = UncertaintyRegions(np.zeros((2, 2)), np.ones((2, 2)))
        with pytest.raises(ValueError, match="backend"):
            apply_decision_rules(
                regions, np.ones(2, dtype=bool), np.zeros(2, dtype=bool),
                np.zeros(2), backend="nope",
            )


# ---------------------------------------------------------------------
# batched rectangle updates == per-point oracles
# ---------------------------------------------------------------------


class TestRectangleBatches:
    @given(st.integers(0, 10_000), st.booleans())
    @moderate
    def test_intersect_matches_scalar(self, seed, force_disjoint):
        rng = np.random.default_rng(seed)
        n, m = 20, 3
        lo = rng.normal(size=(n, m))
        hi = lo + rng.uniform(0.1, 1.0, size=(n, m))
        idx = rng.choice(n, size=8, replace=False)
        new_lo = rng.normal(size=(8, m))
        new_hi = new_lo + rng.uniform(0.0, 1.0, size=(8, m))
        if force_disjoint:
            # Push some rectangles entirely outside the accumulated box
            # so the degenerate clip-to-previous fallback fires.
            new_lo[:4] += 10.0
            new_hi[:4] += 10.0
        vec = UncertaintyRegions(lo.copy(), hi.copy())
        ref = UncertaintyRegions(lo.copy(), hi.copy())
        vec.intersect(idx, new_lo, new_hi)
        intersect_scalar(ref, idx, new_lo, new_hi)
        np.testing.assert_array_equal(vec.lo, ref.lo)
        np.testing.assert_array_equal(vec.hi, ref.hi)

    @given(st.integers(0, 10_000))
    @moderate
    def test_collapse_batch_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 15, 2
        lo = rng.normal(size=(n, m))
        hi = lo + 1.0
        idx = rng.choice(n, size=6, replace=False)
        values = rng.normal(size=(6, m))
        batch = UncertaintyRegions(lo.copy(), hi.copy())
        loop = UncertaintyRegions(lo.copy(), hi.copy())
        batch.collapse_batch(idx, values)
        for r, i in enumerate(idx):
            loop.collapse(int(i), values[r])
        np.testing.assert_array_equal(batch.lo, loop.lo)
        np.testing.assert_array_equal(batch.hi, loop.hi)

    @given(st.integers(0, 10_000))
    @moderate
    def test_collapse_partial_batch_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 15, 3
        lo = rng.normal(size=(n, m))
        hi = lo + 1.0
        idx = rng.choice(n, size=6, replace=False)
        values = rng.normal(size=(6, m))
        values[rng.random((6, m)) < 0.4] = np.nan  # NaN-imputed metrics
        batch = UncertaintyRegions(lo.copy(), hi.copy())
        loop = UncertaintyRegions(lo.copy(), hi.copy())
        batch.collapse_partial_batch(idx, values)
        for r, i in enumerate(idx):
            loop.collapse_partial(int(i), values[r])
        np.testing.assert_array_equal(batch.lo, loop.lo)
        np.testing.assert_array_equal(batch.hi, loop.hi)

    def test_batch_shape_validation(self):
        regions = UncertaintyRegions(np.zeros((4, 2)), np.ones((4, 2)))
        with pytest.raises(ValueError, match="expected"):
            regions.collapse_batch(np.array([0, 1]), np.zeros((2, 3)))
        with pytest.raises(ValueError, match="expected"):
            regions.collapse_partial_batch(np.array([0]), np.zeros((2, 2)))


# ---------------------------------------------------------------------
# shared Cholesky factor == independent per-GP fits
# ---------------------------------------------------------------------


def _make_engine(m=3, d=3, shared=True, seed=0, n_pool=30, **cfg_kw):
    """A two-task engine over a synthetic pool; pool row 10 duplicates
    row 3 so later evaluations can append exact-duplicate configs."""
    rng = np.random.default_rng(seed)
    X_pool = rng.uniform(size=(n_pool, d))
    X_pool[10] = X_pool[3]
    Y_pool = rng.normal(size=(n_pool, m))
    Xs = rng.uniform(size=(20, d))
    Ys = rng.normal(size=(20, m))
    cfg = PPATunerConfig(
        reopt_every=0, n_restarts=0, shared_factor=shared, **cfg_kw
    )
    models = [
        TransferGP(kernel=RBFKernel(np.full(d, 0.4)), optimize=False)
        for _ in range(m)
    ]
    engine = CalibrationEngine(models, cfg, sources=[(Xs, Ys)])
    engine.register_pool(X_pool)
    return engine, X_pool, Y_pool


def _calibrate_init(engine, X_pool, Y_pool, init=(0, 1, 2, 3, 4, 5)):
    n, m = len(X_pool), Y_pool.shape[1]
    sampled = np.zeros(n, dtype=bool)
    sampled[list(init)] = True
    y_obs = np.full((n, m), np.nan)
    y_obs[sampled] = Y_pool[sampled]
    engine.calibrate(0, X_pool, sampled, y_obs, list(init))
    return sampled, y_obs


class TestSharedFactor:
    def _pair(self, **cfg_kw):
        eng_s, X_pool, Y_pool = _make_engine(shared=True, **cfg_kw)
        eng_i, _, _ = _make_engine(shared=False, **cfg_kw)
        return eng_s, eng_i, X_pool, Y_pool

    def test_shared_fit_matches_independent(self):
        eng_s, eng_i, X_pool, Y_pool = self._pair()
        for eng in (eng_s, eng_i):
            _calibrate_init(eng, X_pool, Y_pool)
        assert eng_s.stats.n_shared_fits == len(eng_s.models) - 1
        assert eng_i.stats.n_shared_fits == 0
        idx = np.arange(len(X_pool))
        mean_s, std_s = eng_s.predict(idx)
        mean_i, std_i = eng_i.predict(idx)
        np.testing.assert_allclose(mean_s, mean_i, atol=TOL_SHARED, rtol=0)
        np.testing.assert_allclose(std_s, std_i, atol=TOL_SHARED, rtol=0)

    def test_shared_update_matches_independent(self):
        eng_s, eng_i, X_pool, Y_pool = self._pair()
        for eng in (eng_s, eng_i):
            sampled, y_obs = _calibrate_init(eng, X_pool, Y_pool)
            for t, new in enumerate(([6, 7], [8], [9]), start=1):
                sampled[new] = True
                y_obs[new] = Y_pool[new]
                eng.calibrate(t, X_pool, sampled, y_obs, new)
        assert eng_s.stats.n_shared_updates == 3 * (
            len(eng_s.models) - 1
        )
        idx = np.arange(len(X_pool))
        mean_s, std_s = eng_s.predict(idx)
        mean_i, std_i = eng_i.predict(idx)
        np.testing.assert_allclose(mean_s, mean_i, atol=TOL_SHARED, rtol=0)
        np.testing.assert_allclose(std_s, std_i, atol=TOL_SHARED, rtol=0)

    def test_adopt_fit_bit_identical(self):
        """Follower adoption redoes only the RHS solve: the posterior
        equals an independent fit on the same inputs bit for bit."""
        rng = np.random.default_rng(1)
        d = 3
        Xs, Xt = rng.uniform(size=(15, d)), rng.uniform(size=(8, d))
        ys0, ys1 = rng.normal(size=15), rng.normal(size=15)
        yt0, yt1 = rng.normal(size=8), rng.normal(size=8)
        Xq = rng.uniform(size=(12, d))

        def make():
            return TransferGP(
                kernel=RBFKernel(np.full(d, 0.4)), optimize=False
            )

        lead = make().fit(Xs, ys0, Xt, yt0)
        follower = make()
        follower.adopt_fit(lead, np.concatenate([ys1, yt1]))
        ref = make().fit(Xs, ys1, Xt, yt1)
        mf, vf = follower.predict(Xq)
        mr, vr = ref.predict(Xq)
        np.testing.assert_array_equal(mf, mr)
        np.testing.assert_array_equal(vf, vr)

    def test_adopt_fit_multisource(self):
        rng = np.random.default_rng(2)
        d = 2
        sources0 = [
            (rng.uniform(size=(10, d)), rng.normal(size=10))
            for _ in range(2)
        ]
        sources1 = [(X, rng.normal(size=len(X))) for X, _ in sources0]
        Xt = rng.uniform(size=(6, d))
        yt0, yt1 = rng.normal(size=6), rng.normal(size=6)
        Xq = rng.uniform(size=(9, d))

        def make():
            return MultiSourceTransferGP(
                kernel=RBFKernel(np.full(d, 0.4)), optimize=False
            )

        lead = make().fit(sources0, Xt, yt0)
        follower = make()
        follower.adopt_fit(
            lead,
            np.concatenate([y for _, y in sources1] + [yt1]),
        )
        ref = make().fit(sources1, Xt, yt1)
        mf, vf = follower.predict(Xq)
        mr, vr = ref.predict(Xq)
        np.testing.assert_array_equal(mf, mr)
        np.testing.assert_array_equal(vf, vr)

    def test_signature_divergence_disables_sharing(self):
        eng, X_pool, Y_pool = _make_engine(shared=True)
        _calibrate_init(eng, X_pool, Y_pool)
        assert eng._shared_active
        # Re-optimization moves one metric's hyperparameters: the next
        # calibration must drop to the independent path.
        kern = eng.models[1].kernel
        kern.theta = kern.theta + 0.5
        assert not eng._sharing_possible()

    def test_golden_trajectory_shared_vs_independent(self, synthetic_pool):
        X, Y, Xs, Ys = synthetic_pool

        def run(shared):
            cfg = PPATunerConfig(
                max_iterations=30, seed=3, reopt_every=0,
                shared_factor=shared,
            )
            tuner = PPATuner(cfg)
            result = tuner.tune(X, PoolOracle(Y), sources=[(Xs, Ys)])
            return tuner, result

        tuner_s, res_s = run(True)
        tuner_i, res_i = run(False)
        assert tuner_s.calibration_.stats.n_shared_updates > 0
        assert tuner_i.calibration_.stats.n_shared_updates == 0
        np.testing.assert_array_equal(
            res_s.evaluated_indices, res_i.evaluated_indices
        )
        np.testing.assert_array_equal(
            res_s.pareto_indices, res_i.pareto_indices
        )
        assert [h.selected for h in res_s.history] == [
            h.selected for h in res_i.history
        ]


# ---------------------------------------------------------------------
# duplicate rows and the shared-update fallback (jitter regression)
# ---------------------------------------------------------------------


class TestSharedFallback:
    def test_exact_duplicate_rows_do_not_crash(self):
        """Pool row 10 equals row 3; absorbing it appends an exact
        duplicate of a training config.  The shared path must survive
        (with or without jitter fallback) and match a from-scratch
        independent refit."""
        eng, X_pool, Y_pool = _make_engine(shared=True)
        sampled, y_obs = _calibrate_init(eng, X_pool, Y_pool)
        sampled[10] = True
        y_obs[10] = Y_pool[10]
        eng.calibrate(1, X_pool, sampled, y_obs, [10])

        ref, _, _ = _make_engine(shared=False)
        ref.calibrate(0, X_pool, sampled, y_obs, list(np.nonzero(sampled)[0]))
        idx = np.arange(len(X_pool))
        mean_f, std_f = eng.predict(idx)
        mean_r, std_r = ref.predict(idx)
        np.testing.assert_allclose(mean_f, mean_r, atol=1e-6)
        np.testing.assert_allclose(std_f, std_r, atol=1e-6)

    def test_forced_fallback_goes_per_gp(self, monkeypatch):
        """When the shared border update is rejected (non-PD Schur
        complement), every model refactorizes independently, the flags
        propagate, and the posterior still matches the exact refit."""
        import repro.gp.incremental as incremental

        eng, X_pool, Y_pool = _make_engine(shared=True)
        sampled, y_obs = _calibrate_init(eng, X_pool, Y_pool)

        def boom(*args, **kwargs):
            raise NotPositiveDefiniteError("forced")

        monkeypatch.setattr(incremental, "cholesky_append_rows", boom)
        sampled[[6, 7]] = True
        y_obs[[6, 7]] = Y_pool[[6, 7]]
        eng.calibrate(1, X_pool, sampled, y_obs, [6, 7])

        assert all(m.last_update_fallback for m in eng.models)
        assert eng.stats.n_fallbacks == len(eng.models)
        assert eng.stats.n_shared_updates == 0
        monkeypatch.undo()

        ref, _, _ = _make_engine(shared=False)
        ref.calibrate(0, X_pool, sampled, y_obs, list(np.nonzero(sampled)[0]))
        idx = np.arange(len(X_pool))
        mean_f, std_f = eng.predict(idx)
        mean_r, std_r = ref.predict(idx)
        np.testing.assert_allclose(mean_f, mean_r, atol=1e-8)
        np.testing.assert_allclose(std_f, std_r, atol=1e-8)

    def test_partial_report_blocks_shared_updates(self):
        """After a partial (NaN) calibration the metrics train on
        different row subsets; the engine must not share a factor until
        a non-partial full fit re-aligns them."""
        eng, X_pool, Y_pool = _make_engine(shared=True)
        sampled, y_obs = _calibrate_init(eng, X_pool, Y_pool)
        before = eng.stats.n_shared_updates
        sampled[6] = True
        y_obs[6] = Y_pool[6]
        y_obs[6, 1] = np.nan  # metric 1 missed this report
        eng.calibrate(1, X_pool, sampled, y_obs, [6])
        assert eng.stats.n_shared_updates == before
        assert not eng._shared_active
        # Rows now differ across metrics: later clean updates must stay
        # per-GP even though the signatures still agree.
        sampled[7] = True
        y_obs[7] = Y_pool[7]
        eng.calibrate(2, X_pool, sampled, y_obs, [7])
        assert eng.stats.n_shared_updates == before
        assert not eng._shared_active


# ---------------------------------------------------------------------
# float32 pool caches: documented tolerance, unchanged trajectories
# ---------------------------------------------------------------------


class TestFloat32Pool:
    def test_pool_predictions_within_tolerance(self):
        rng = np.random.default_rng(4)
        d = 3
        Xs, Xt = rng.uniform(size=(20, d)), rng.uniform(size=(10, d))
        pool = rng.uniform(size=(200, d))

        def fitted(seed):
            r = np.random.default_rng(seed)
            return TransferGP(
                kernel=RBFKernel(np.full(d, 0.4)), optimize=False
            ).fit(Xs, r.normal(size=20), Xt, r.normal(size=10))

        f64, f32 = fitted(4), fitted(4)
        f64.register_pool(pool)
        f32.register_pool(pool, block=64, dtype=np.float32)
        idx = np.arange(len(pool))
        m64, v64 = f64.predict_pool(idx)
        m32, v32 = f32.predict_pool(idx)
        np.testing.assert_allclose(m32, m64, rtol=1e-4, atol=1e-5)
        np.testing.assert_allclose(v32, v64, rtol=1e-3, atol=1e-4)

    def test_blocked_f64_cache_bit_identical(self):
        """Blocking only partitions the solve columns; with float64
        storage the cache must equal the single-shot build exactly."""
        rng = np.random.default_rng(5)
        d = 3
        Xs, Xt = rng.uniform(size=(20, d)), rng.uniform(size=(10, d))
        pool = rng.uniform(size=(100, d))

        def fitted(seed):
            r = np.random.default_rng(seed)
            return TransferGP(
                kernel=RBFKernel(np.full(d, 0.4)), optimize=False
            ).fit(Xs, r.normal(size=20), Xt, r.normal(size=10))

        one_shot, blocked = fitted(5), fitted(5)
        one_shot.register_pool(pool)
        blocked.register_pool(pool, block=17)
        idx = np.arange(len(pool))
        m1, v1 = one_shot.predict_pool(idx)
        m2, v2 = blocked.predict_pool(idx)
        np.testing.assert_array_equal(m1, m2)
        np.testing.assert_array_equal(v1, v2)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_golden_trajectory_unchanged(self, seed):
        """The float32 cache perturbs posteriors by ~1e-5 relative —
        far below the decision margins on these seeded runs, so the
        selected and Pareto index sets must not move."""
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(60, 3))
        Y = rng.uniform(0.5, 2.0, size=(60, 2))

        def run(**kw):
            cfg = PPATunerConfig(max_iterations=15, seed=seed, **kw)
            return PPATuner(cfg).tune(X, PoolOracle(Y))

        ref = run()
        fast = run(float32_pool=True, pool_block=16)
        np.testing.assert_array_equal(
            ref.evaluated_indices, fast.evaluated_indices
        )
        np.testing.assert_array_equal(
            ref.pareto_indices, fast.pareto_indices
        )
        assert [h.selected for h in ref.history] == [
            h.selected for h in fast.history
        ]


# ---------------------------------------------------------------------
# default config: trace-event stream identical to the pre-PR path
# ---------------------------------------------------------------------


def _stripped(sink: MemorySink) -> list[dict]:
    out = []
    for ev in sink.events:
        d = ev.to_json()
        d.pop("seconds", None)
        out.append(d)
    return out


class TestTraceStreamUnchanged:
    def test_default_config_matches_pre_pr_stream(self, synthetic_pool):
        """Defaults (shared factor + vectorized decisions + blocked
        caches) emit the exact event stream of the pre-PR per-model
        path (incremental on, everything else off)."""
        X, Y, Xs, Ys = synthetic_pool

        def run(**kw):
            sink = MemorySink()
            cfg = PPATunerConfig(max_iterations=25, seed=3, **kw)
            PPATuner(
                cfg, recorder=TraceRecorder(sinks=[sink])
            ).tune(X, PoolOracle(Y), sources=[(Xs, Ys)])
            return _stripped(sink)

        default_stream = run()
        pre_pr_stream = run(
            shared_factor=False,
            decision_backend="reference",
            pool_block=0,
        )
        assert default_stream == pre_pr_stream
