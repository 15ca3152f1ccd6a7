"""Numerically robust linear algebra for GP inference."""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.linalg.lapack import dpotri

#: Initial diagonal jitter added when a covariance factorization fails.
DEFAULT_JITTER = 1e-8
#: Factor by which jitter grows between attempts.
_JITTER_GROWTH = 10.0
#: Maximum factorization attempts before giving up.
_MAX_TRIES = 8


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Covariance matrix could not be factorized even with jitter."""


def _cholesky(matrix: np.ndarray) -> np.ndarray:
    """Lower factor through scipy's LAPACK, as every solve here (one BLAS
    library, see DESIGN.md).  OpenBLAS's pivot test lets NaN and an
    infinite diagonal through; both leave a non-finite pivot."""
    L = cholesky(matrix, lower=True, check_finite=False)
    if not np.isfinite(np.diag(L)).all():
        raise NotPositiveDefiniteError("non-finite Cholesky pivot")
    return L


def robust_cholesky(
    matrix: np.ndarray, jitter: float = DEFAULT_JITTER
) -> tuple[np.ndarray, float]:
    """Lower-Cholesky factor of ``matrix`` with adaptive jitter.

    Args:
        matrix: Symmetric matrix to factorize.
        jitter: Starting diagonal boost used when the plain factorization
            fails.

    Returns:
        ``(L, used_jitter)`` where ``L @ L.T ≈ matrix + used_jitter * I``.

    Raises:
        NotPositiveDefiniteError: If the matrix has a non-finite entry
            in its lower triangle, or stays indefinite after
            ``_MAX_TRIES`` jitter escalations.
    """
    matrix = np.asarray(matrix, dtype=float)
    scale = float(np.mean(np.diag(matrix))) or 1.0
    try:
        return _cholesky(matrix), 0.0
    except NotPositiveDefiniteError:
        raise  # non-finite entries: no jitter helps
    except np.linalg.LinAlgError:
        pass
    current = jitter * scale
    for _ in range(_MAX_TRIES):
        try:
            return _cholesky(matrix + current * np.eye(len(matrix))), current
        except np.linalg.LinAlgError:
            current *= _JITTER_GROWTH
    raise NotPositiveDefiniteError(
        f"matrix not PD after jitter up to {current:.3g}"
    )


def cholesky_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``(L @ L.T) x = b`` given the lower factor ``L``."""
    return cho_solve((L, True), b)


def cholesky_inverse(L: np.ndarray) -> np.ndarray:
    """``(L @ L.T)^-1`` from a lower factor whose strict upper triangle
    is zero, as every factor here (LAPACK ``potri`` fills the lower)."""
    inv = dpotri(L, lower=True)[0]
    return inv + np.tril(inv, -1).T


def log_det_from_cholesky(L: np.ndarray) -> float:
    """``log |A|`` for ``A = L @ L.T``."""
    return float(2.0 * np.sum(np.log(np.diag(L))))


def cholesky_append_rows(
    L: np.ndarray, K_cross: np.ndarray, K_new: np.ndarray
) -> np.ndarray:
    """Border-extend a lower-Cholesky factor by ``k`` new rows.

    Given ``L`` with ``L @ L.T = A`` and the blocks of the bordered matrix

        A_ext = [[A,          K_cross],
                 [K_cross.T,  K_new  ]]

    returns the lower factor ``L_ext`` of ``A_ext`` in O(k n^2) instead of
    the O((n+k)^3) full refactorization:

        L_ext = [[L,    0  ],
                 [B.T,  L22]],   B = L^-1 K_cross,
                                 L22 = chol(K_new - B.T B).

    Args:
        L: ``(n, n)`` lower-triangular factor of the existing block.
        K_cross: ``(n, k)`` covariance between existing and new rows.
        K_new: ``(k, k)`` covariance (plus any noise/jitter diagonal)
            among the new rows.

    Returns:
        The ``(n + k, n + k)`` extended lower factor.

    Raises:
        NotPositiveDefiniteError: If the Schur complement
            ``K_new - B.T B`` is not positive definite — the caller
            should fall back to a full (jittered) refactorization.
    """
    L = np.asarray(L, dtype=float)
    K_cross = np.atleast_2d(np.asarray(K_cross, dtype=float))
    K_new = np.atleast_2d(np.asarray(K_new, dtype=float))
    n = len(L)
    k = K_new.shape[0]
    if K_cross.shape != (n, k) or K_new.shape != (k, k):
        raise ValueError(
            f"block shapes mismatch: L {L.shape}, K_cross {K_cross.shape},"
            f" K_new {K_new.shape}"
        )
    B = solve_triangular(L, K_cross, lower=True) if n else K_cross
    S = K_new - B.T @ B
    try:
        L22 = _cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            "Schur complement of appended rows is not PD"
        ) from exc
    L_ext = np.zeros((n + k, n + k))
    L_ext[:n, :n] = L
    L_ext[n:, :n] = B.T
    L_ext[n:, n:] = L22
    return L_ext


def cholesky_append_row(
    L: np.ndarray, k_cross: np.ndarray, k_new: float
) -> np.ndarray:
    """Rank-1 border update: extend ``L`` by a single new row.

    Convenience wrapper over :func:`cholesky_append_rows` for the common
    one-observation-per-iteration case.

    Args:
        L: ``(n, n)`` lower factor.
        k_cross: Length-``n`` covariance vector against existing rows.
        k_new: Variance of the new row (plus noise/jitter).

    Returns:
        The ``(n + 1, n + 1)`` extended lower factor.

    Raises:
        NotPositiveDefiniteError: If the new diagonal pivot is not
            positive.
    """
    k_cross = np.asarray(k_cross, dtype=float).reshape(-1, 1)
    return cholesky_append_rows(L, k_cross, np.array([[float(k_new)]]))


__all__ = [
    "DEFAULT_JITTER",
    "NotPositiveDefiniteError",
    "cholesky_append_row",
    "cholesky_append_rows",
    "cholesky_inverse",
    "cholesky_solve",
    "log_det_from_cholesky",
    "robust_cholesky",
]
