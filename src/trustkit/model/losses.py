"""Training objectives: pixel losses optionally blended with a structural term."""

from __future__ import annotations

import numpy as np

from .. import ndtensor as nd
from ..errors import DimensionError, ParameterError
from ..metrics import ssim_tensor

LAMBDA_L1 = 0.1  # weight of the mean absolute error in "l2_l1"
LAMBDA_SSIM = 0.5  # weight of 1 - SSIM in "l2_ssim"


def sample_losses(kind: str, pred: nd.Tensor, target) -> nd.Tensor:
    """Per-image loss of a (B, S, S) prediction stack against a target stack
    of the same shape, shape (B,); any other shape is a DimensionError.
    Differentiable through ``pred``."""
    if not isinstance(target, nd.Tensor):
        target = nd.Tensor(np.asarray(target, dtype=np.float64))
    if pred.data.ndim != 3 or target.data.shape != pred.data.shape:
        raise DimensionError(
            f"loss expects matching (B, H, W) stacks, got {pred.data.shape} "
            f"and {target.data.shape}")
    b = pred.data.shape[0]

    def image_mean(t):
        return nd.reduce_mean(nd.reshape(t, (b, -1)), axis=1)

    diff = nd.sub(pred, target)
    l2 = image_mean(nd.mul(diff, diff))
    if kind == "l2":
        return l2
    if kind == "l2_l1":
        return nd.add(l2, nd.scalar_mul(image_mean(nd.absolute(diff)), LAMBDA_L1))
    if kind == "l2_ssim":
        dissim = nd.scalar_add(nd.scalar_mul(ssim_tensor(pred, target), -1.0), 1.0)
        return nd.add(l2, nd.scalar_mul(dissim, LAMBDA_SSIM))
    raise ParameterError(f"unknown loss kind {kind!r}")


def loss(kind: str, pred: nd.Tensor, target) -> nd.Tensor:
    """Scalar training loss: the mean of ``sample_losses`` over the batch."""
    return nd.reduce_mean(sample_losses(kind, pred, target))
