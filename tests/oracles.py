"""Exact reference quantities that only the tests need.

The composite loss and the analytic client gradient are oracles for
finite-difference and estimator checks; the zeroth-order client path never
calls them.
"""

import numpy as np

from splitsim.errors import DimensionMismatchError
from splitsim.model import (
    Batch,
    SplitModelConfig,
    client_backward_from_lambda,
    client_forward,
    server_forward_backward,
    server_loss,
)


def full_loss(theta: np.ndarray, batch, cfg: SplitModelConfig) -> float:
    """Composite batch-mean loss of client forward followed by server forward."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (cfg.d,):
        raise DimensionMismatchError(f"theta has shape {theta.shape}, expected ({cfg.d},)")
    if not isinstance(batch, Batch):
        raise DimensionMismatchError("full_loss requires a Batch with labels")
    z = client_forward(theta[: cfg.d_c], batch, cfg)
    return server_loss(theta[cfg.d_c:], z, batch.labels, cfg)


def analytic_client_gradient(theta: np.ndarray, batch: Batch, cfg: SplitModelConfig) -> np.ndarray:
    """Exact gradient of the composite loss w.r.t. client parameters.

    Diagnostics-only oracle: the zeroth-order client path never calls this.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (cfg.d,):
        raise DimensionMismatchError(f"theta has shape {theta.shape}, expected ({cfg.d},)")
    z = client_forward(theta[: cfg.d_c], batch, cfg)
    _, _, lam = server_forward_backward(theta[cfg.d_c:], z, batch.labels, cfg)
    return client_backward_from_lambda(theta[: cfg.d_c], batch, lam, cfg)
