"""Gaussian-process substrate (from scratch on numpy/scipy).

One task-structured GP (:mod:`repro.gp.task_gp`) with three
constructors: standard GP regression (paper Eq. (1)), the two-task
transfer GP with the Eq. (5)-(7) transfer kernel (Eq. (8)), and its
K-source extension.
"""

from .gp_regression import GPRegressor
from .incremental import IncrementalGPMixin, predict_pool_multi
from .kernels import Kernel, Matern52Kernel, RBFKernel, make_kernel
from .likelihood import gaussian_log_marginal, maximize_objective
from .multisource import MultiSourceTransferGP
from .linalg import (
    NotPositiveDefiniteError,
    cholesky_append_row,
    cholesky_append_rows,
    cholesky_solve,
    log_det_from_cholesky,
    robust_cholesky,
)
from .task_gp import transfer_factor
from .transfer_gp import SOURCE_TASK, TARGET_TASK, TransferGP

__all__ = [
    "SOURCE_TASK",
    "TARGET_TASK",
    "GPRegressor",
    "IncrementalGPMixin",
    "Kernel",
    "Matern52Kernel",
    "MultiSourceTransferGP",
    "NotPositiveDefiniteError",
    "RBFKernel",
    "TransferGP",
    "cholesky_append_row",
    "cholesky_append_rows",
    "cholesky_solve",
    "gaussian_log_marginal",
    "log_det_from_cholesky",
    "make_kernel",
    "maximize_objective",
    "predict_pool_multi",
    "robust_cholesky",
    "transfer_factor",
]
