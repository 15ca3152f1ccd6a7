"""Stationary covariance kernels with ARD lengthscales and analytic
hyperparameter gradients.

Hyperparameters live in log space (positivity for free, better-conditioned
optimization).  Every kernel exposes:

- ``theta`` — the log-hyperparameter vector (settable);
- ``eval(X1, X2)`` — cross-covariance matrix;
- ``gram(D)`` — training covariance plus the contraction
  ``W -> sum(W * dK/dtheta_i)`` marginal-likelihood training needs.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Callable

import numpy as np
from scipy.linalg.blas import dgemv

#: Default log-space box constraints for lengthscales and variances.
_LOG_BOUNDS = (-6.0, 6.0)


def _sq_dists_per_dim(X1: np.ndarray, X2: np.ndarray) -> np.ndarray:
    """Per-dimension squared differences, shape ``(n1, n2, d)``."""
    diff = X1[:, None, :] - X2[None, :, :]
    return diff * diff


def pairwise_sq_diffs(X: np.ndarray) -> np.ndarray:
    """Unscaled per-dimension squared differences of ``X`` with itself,
    as the ``(n * n, d)`` Fortran-ordered matrix :meth:`Kernel.gram`
    contracts through scipy's BLAS (no copy per call)."""
    return np.asfortranarray(_sq_dists_per_dim(X, X).reshape(len(X) ** 2, -1))


class Kernel(ABC):
    """Abstract stationary kernel over R^d."""

    @property
    @abstractmethod
    def theta(self) -> np.ndarray:
        """Log-space hyperparameter vector (copy)."""

    @theta.setter
    @abstractmethod
    def theta(self, value: np.ndarray) -> None:
        """Set the log-space hyperparameters."""

    @property
    def n_params(self) -> int:
        """Number of hyperparameters."""
        return len(self.theta)

    @abstractmethod
    def bounds(self) -> list[tuple[float, float]]:
        """Per-hyperparameter log-space optimization bounds."""

    @abstractmethod
    def eval(self, X1: np.ndarray, X2: np.ndarray | None = None) -> np.ndarray:
        """Covariance matrix between ``X1`` and ``X2`` (or ``X1`` itself)."""

    @abstractmethod
    def gram(
        self, D: np.ndarray
    ) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
        """``(K, contract)`` for ``X`` from ``D = pairwise_sq_diffs(X)``
        (built once per fit): the covariance and
        ``W -> [sum(W * dK/dtheta_i) for each i]``."""

    def diag(self, X: np.ndarray) -> np.ndarray:
        """Diagonal of ``eval(X, X)`` without forming the matrix."""
        return np.full(len(X), float(self.variance))

    @property
    @abstractmethod
    def variance(self) -> float:
        """Signal variance (the kernel's value at zero distance)."""

    def clone(self) -> "Kernel":
        """Deep copy (same class and hyperparameters)."""
        new = self.__class__.__new__(self.__class__)
        new.__dict__.update(
            {k: np.copy(v) if isinstance(v, np.ndarray) else v
             for k, v in self.__dict__.items()}
        )
        return new


class _ArdKernel(Kernel):
    """Shared machinery for ARD kernels: theta = [log ls_1..d, log var]."""

    def __init__(
        self, lengthscales: np.ndarray | list[float], variance: float = 1.0
    ) -> None:
        """Create the kernel.

        Args:
            lengthscales: Per-dimension positive lengthscales.
            variance: Positive signal variance.
        """
        ls = np.asarray(lengthscales, dtype=float).ravel()
        if np.any(ls <= 0) or variance <= 0:
            raise ValueError("lengthscales and variance must be positive")
        self._log_ls = np.log(ls)
        self._log_var = float(np.log(variance))

    @property
    def lengthscales(self) -> np.ndarray:
        """Per-dimension lengthscales (natural space)."""
        return np.exp(self._log_ls)

    @property
    def variance(self) -> float:
        return float(np.exp(self._log_var))

    @property
    def dim(self) -> int:
        """Input dimensionality."""
        return len(self._log_ls)

    @property
    def theta(self) -> np.ndarray:
        return np.append(self._log_ls, self._log_var)

    @theta.setter
    def theta(self, value: np.ndarray) -> None:
        value = np.asarray(value, dtype=float).ravel()
        if len(value) != len(self._log_ls) + 1:
            raise ValueError(
                f"expected {len(self._log_ls) + 1} params, got {len(value)}"
            )
        self._log_ls = value[:-1].copy()
        self._log_var = float(value[-1])

    def bounds(self) -> list[tuple[float, float]]:
        return [_LOG_BOUNDS] * (self.dim + 1)

    @abstractmethod
    def _radial(self, r2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(K, G)`` at scaled squared distances ``r2``, where
        ``G = -2 dK/d(r^2)`` so that ``dK/dlog ls_j = G * D_j / ls_j^2``."""

    def eval(self, X1: np.ndarray, X2: np.ndarray | None = None) -> np.ndarray:
        X1 = np.atleast_2d(X1)
        X2 = X1 if X2 is None else np.atleast_2d(X2)
        ls = self.lengthscales
        return self._radial(_sq_dists_per_dim(X1 / ls, X2 / ls).sum(axis=2))[0]

    def gram(
        self, D: np.ndarray
    ) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
        n = math.isqrt(len(D))
        inv_ls2 = np.exp(-2.0 * self._log_ls)
        K, G = self._radial(dgemv(1.0, D, inv_ls2).reshape(n, n))

        def contract(W: np.ndarray) -> np.ndarray:
            # d/dlog ls_j: G * D_j / ls_j^2; d/dlog var: K itself.
            ls = dgemv(1.0, D, (W * G).ravel(), trans=1) * inv_ls2
            return np.append(ls, np.sum(W * K))

        return K, contract


class RBFKernel(_ArdKernel):
    """Squared-exponential kernel with ARD lengthscales.

    ``k(x, x') = variance * exp(-0.5 * sum_j ((x_j - x'_j) / ls_j)^2)``
    """

    def _radial(self, r2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        K = self.variance * np.exp(-0.5 * r2)
        return K, K


class Matern52Kernel(_ArdKernel):
    """Matérn-5/2 kernel with ARD lengthscales.

    ``k = variance * (1 + sqrt(5) r + 5/3 r^2) * exp(-sqrt(5) r)`` where
    ``r`` is the ARD-scaled Euclidean distance.
    """

    def _radial(self, r2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        r = np.sqrt(np.maximum(r2, 0.0))
        s5r = np.sqrt(5.0) * r
        expo = np.exp(-s5r)
        K = self.variance * (1.0 + s5r + 5.0 / 3.0 * r2) * expo
        return K, 5.0 / 3.0 * self.variance * (1.0 + s5r) * expo


def make_kernel(
    name: str, dim: int, lengthscale: float = 1.0, variance: float = 1.0
) -> Kernel:
    """Kernel factory by name (``"rbf"`` or ``"matern52"``).

    Args:
        name: Kernel family.
        dim: Input dimensionality (one ARD lengthscale per dim).
        lengthscale: Initial lengthscale for every dimension.
        variance: Initial signal variance.

    Raises:
        ValueError: For an unknown kernel name.
    """
    families = {"rbf": RBFKernel, "matern52": Matern52Kernel}
    if name not in families:
        raise ValueError(
            f"unknown kernel {name!r}; choose from {sorted(families)}"
        )
    return families[name](np.full(dim, lengthscale), variance)
