"""Reconstruction models: the hybrid attention/decoder network, a plain
convolutional baseline, training, and checkpointing."""

from .config import LOSS_KINDS, TrainConfig, TrustConfig, UnetConfig
from .forward import forward_trust, forward_unet, input_stage, patchify, token_gram
from .losses import loss, sample_losses
from .params import (
    KINDS,
    TRUST,
    UNET,
    checkpoint_load,
    checkpoint_save,
    config_from_manifest,
    flop_estimate,
    init_params,
    model_spec,
    param_count,
    param_shapes,
)
from .train import PREDICT_CHUNK, Adam, EpochRow, TrainResult, batch_loss, evaluate, predict, train

__all__ = [
    "Adam",
    "EpochRow",
    "KINDS",
    "LOSS_KINDS",
    "PREDICT_CHUNK",
    "TRUST",
    "TrainConfig",
    "TrainResult",
    "TrustConfig",
    "UNET",
    "UnetConfig",
    "batch_loss",
    "checkpoint_load",
    "checkpoint_save",
    "config_from_manifest",
    "evaluate",
    "flop_estimate",
    "forward_trust",
    "forward_unet",
    "init_params",
    "input_stage",
    "loss",
    "model_spec",
    "param_count",
    "param_shapes",
    "patchify",
    "predict",
    "sample_losses",
    "token_gram",
    "train",
]
