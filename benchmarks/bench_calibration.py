"""Calibration/selection hot-path benchmark: fast paths vs pre-PR baseline.

Runs the same tuning loop twice on identical data and seeds — once with
every fast path enabled (incremental border updates, shared Cholesky
factor across the per-metric GPs, blocked vectorized decision pass) and
once forcing the full pre-PR baseline (from-scratch refits, independent
per-GP factorizations, the retained ``decision_backend="reference"``
pass) — and reports the wall-time ratio.  Trajectory equality is
asserted on every run: the speedup must come for free.

Usage:
    pytest benchmarks/bench_calibration.py            # via pytest-benchmark
    PYTHONPATH=src python benchmarks/bench_calibration.py --smoke
    PYTHONPATH=src python benchmarks/bench_calibration.py --smoke --large-pool

The ``--smoke`` mode is the CI gate: a reduced problem that still
requires the fast path to win by a configurable factor (>=1.5x in CI,
where timer noise on shared runners makes the local >=3x unreliable).
``--large-pool`` adds the pool>=50k tier where the blocked float32
prediction caches and whole-pool vectorized decisions matter; its gate
stays at >=3x — at that scale the win is structural (cached vs rebuilt
cross-covariance), not timer-limited.  Hyperparameter re-optimization
is disabled (``reopt_every=0``) so the measurement isolates calibration
cost — with re-optimization on a cadence both arms pay the same
optimizer bill and the ratio only shrinks toward it.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.core import PoolOracle, PPATuner, PPATunerConfig

#: Every fast path on (the library defaults, minus the float32 opt-in
#: which the large tier adds explicitly).
FAST = dict(
    incremental=True,
    shared_factor=True,
    decision_backend="vectorized",
)

#: The full pre-PR configuration: from-scratch refits, independent
#: per-metric factorizations, unblocked float64 pool caches and the
#: retained reference decision pass.
BASELINE = dict(
    incremental=False,
    shared_factor=False,
    decision_backend="reference",
    float32_pool=False,
    pool_block=0,
)


def _make_problem(n_pool: int, n_source: int, d: int, seed: int):
    """Synthetic bi-objective pool with a transferable source archive."""
    rng = np.random.default_rng(seed)
    X_pool = rng.uniform(size=(n_pool, d))
    X_src = rng.uniform(size=(n_source, d))

    def qor(X, shift):
        f1 = np.sum((X - 0.3 - shift) ** 2, axis=1)
        f2 = np.sum((X - 0.7 + shift) ** 2, axis=1)
        noise = 0.01 * rng.normal(size=(len(X), 2))
        return np.column_stack([f1, f2]) + noise

    return X_pool, qor(X_pool, 0.0), X_src, qor(X_src, 0.05)


def _run(arm: dict, *, n_pool: int, n_source: int, d: int,
         max_iterations: int, seed: int = 0, **cfg_extra):
    X_pool, Y_pool, X_src, Y_src = _make_problem(n_pool, n_source, d, seed)
    cfg = PPATunerConfig(
        max_iterations=max_iterations,
        batch_size=1,
        seed=seed,
        reopt_every=0,
        n_restarts=0,
        **{**cfg_extra, **arm},
    )
    tuner = PPATuner(cfg)
    start = time.perf_counter()
    result = tuner.tune(
        X_pool, PoolOracle(Y_pool), sources=[(X_src, Y_src)]
    )
    elapsed = time.perf_counter() - start
    return elapsed, result, tuner.calibration_.stats


def compare(*, n_pool: int, n_source: int, d: int, max_iterations: int,
            seed: int = 0, fast_extra: dict | None = None,
            **cfg_extra) -> dict:
    fast_arm = {**FAST, **(fast_extra or {})}
    t_fast, r_fast, stats = _run(
        fast_arm, n_pool=n_pool, n_source=n_source, d=d,
        max_iterations=max_iterations, seed=seed, **cfg_extra,
    )
    t_slow, r_slow, _ = _run(
        BASELINE, n_pool=n_pool, n_source=n_source, d=d,
        max_iterations=max_iterations, seed=seed, **cfg_extra,
    )
    # Equivalence is part of the benchmark contract, not a separate test.
    np.testing.assert_array_equal(
        r_fast.evaluated_indices, r_slow.evaluated_indices
    )
    np.testing.assert_array_equal(
        r_fast.pareto_indices, r_slow.pareto_indices
    )
    assert [h.selected for h in r_fast.history] == [
        h.selected for h in r_slow.history
    ]
    return {
        "t_fast": t_fast,
        "t_baseline": t_slow,
        "speedup": t_slow / t_fast,
        "n_incremental": stats.n_incremental,
        "n_shared_fits": stats.n_shared_fits,
        "n_shared_updates": stats.n_shared_updates,
        "n_fallbacks": stats.n_fallbacks,
        "n_iterations": r_fast.n_iterations,
        "n_evaluations": r_fast.n_evaluations,
    }


def _report(tag: str, res: dict) -> None:
    print(f"\n=== Calibration engine ({tag}) ===")
    print(f"pre-PR baseline : {res['t_baseline']:8.3f} s")
    print(f"fast paths      : {res['t_fast']:8.3f} s")
    print(f"speedup         : {res['speedup']:8.2f}x  "
          f"({res['n_incremental']} incremental updates, "
          f"{res['n_shared_fits']} shared fits, "
          f"{res['n_shared_updates']} shared updates, "
          f"{res['n_fallbacks']} fallbacks, "
          f"{res['n_iterations']} iterations, "
          f"{res['n_evaluations']} tool runs)")


FULL = dict(n_pool=240, n_source=320, d=6, max_iterations=60)
SMOKE = dict(n_pool=120, n_source=160, d=4, max_iterations=25)

#: The pool>=50k tier of the ISSUE: blocked float32 prediction caches
#: plus the shared factor against the pre-PR unblocked float64 rebuild.
#: ``init_fraction`` is tiny so ``min_init`` governs — the default 2%
#: would spend 1000 tool runs on initialization alone.
LARGE = dict(n_pool=50_000, n_source=200, d=6, max_iterations=8)
LARGE_EXTRA = dict(init_fraction=1e-4, min_init=5)
LARGE_FAST = dict(float32_pool=True)


def test_incremental_speedup(benchmark):
    res = benchmark.pedantic(
        lambda: compare(**FULL), rounds=1, iterations=1, warmup_rounds=0
    )
    _report("pool=240", res)
    # ISSUE acceptance: >=3x at pool >= 200 with identical trajectories.
    assert res["speedup"] >= 3.0


def test_large_pool_speedup(benchmark):
    res = benchmark.pedantic(
        lambda: compare(**LARGE, fast_extra=LARGE_FAST, **LARGE_EXTRA),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    _report("pool=50k", res)
    # ISSUE acceptance: >=3x on the large-pool tier, identical indices.
    assert res["speedup"] >= 3.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced problem with a relaxed (noise-tolerant) gate",
    )
    parser.add_argument(
        "--large-pool", action="store_true",
        help="also run the pool>=50k tier (gate >=3x regardless of "
             "--smoke: the win there is structural, not timer-limited)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="override the required speedup factor of the standard tier",
    )
    args = parser.parse_args()
    from _util import write_bench_json

    params = SMOKE if args.smoke else FULL
    gate = args.min_speedup if args.min_speedup is not None else (
        1.5 if args.smoke else 3.0
    )
    res = compare(**params)
    _report("smoke" if args.smoke else f"pool={params['n_pool']}", res)
    artifact = {
        "gate": gate,
        "standard": res,
        "passed": True,
    }
    failed = False
    if res["speedup"] < gate:
        print(f"FAIL: speedup {res['speedup']:.2f}x < required {gate}x")
        failed = True
    else:
        print(f"OK: speedup {res['speedup']:.2f}x >= {gate}x, "
              "trajectories identical")
    if args.large_pool:
        res = compare(**LARGE, fast_extra=LARGE_FAST, **LARGE_EXTRA)
        _report("pool=50k", res)
        artifact["large_pool"] = res
        if res["speedup"] < 3.0:
            print(f"FAIL: large-pool speedup {res['speedup']:.2f}x < 3x")
            failed = True
        else:
            print(f"OK: large-pool speedup {res['speedup']:.2f}x >= 3x, "
                  "trajectories identical")
    artifact["passed"] = not failed
    write_bench_json("calibration", artifact)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
