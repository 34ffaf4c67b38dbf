"""Parameter sets: seeded initialization, counting, checkpoints."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .. import ndtensor as nd
from ..errors import (OBJECT, STRING, CheckpointError, ParameterError, check_entries, is_int,
                      read_blob, read_json_object, write_blob, write_json)
from . import forward as _forward
from .config import TrustConfig, UnetConfig
from .forward import trust_param_shapes, unet_param_shapes

CHECKPOINT_VERSION = 1

TRUST = "trust"
UNET = "unet"


def param_shapes(model_kind: str, cfg) -> dict[str, tuple[int, ...]]:
    return model_spec(model_kind).param_shapes(cfg)


def _init_value(name: str, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    if name.endswith(".bias") or name.endswith(".shift"):
        return np.zeros(shape)
    if name.endswith(".scale"):
        return np.ones(shape)
    if name == "pos_embed":
        return 0.02 * rng.standard_normal(shape)
    if len(shape) == 4:  # conv kernels: fan_in = C_in * kh * kw
        fan_in = shape[1] * shape[2] * shape[3]
    else:  # linear weights stored (in, out)
        fan_in = shape[0]
    return rng.standard_normal(shape) / np.sqrt(fan_in)


def init_params(model_kind: str, cfg) -> dict[str, nd.Tensor]:
    """Seeded parameter set; iteration order is the shape-map order."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0x1,)))
    return {
        name: nd.Tensor(_init_value(name, shape, rng), requires_grad=True, name=name)
        for name, shape in param_shapes(model_kind, cfg).items()
    }


def param_count(model_kind: str, cfg) -> int:
    return sum(int(np.prod(s)) for s in param_shapes(model_kind, cfg).values())


def _weight_flops(shapes: dict[str, tuple[int, ...]], positions: Callable[[str], int]) -> int:
    """Each weight's size times the number of positions it is applied at."""
    return sum(math.prod(shape) * positions(name)
               for name, shape in shapes.items() if name.endswith(".weight"))


def _trust_flops(cfg: TrustConfig) -> int:
    plan = cfg.stage_plan()

    def positions(name: str) -> int:
        if name.startswith("dec"):
            return plan[int(name[3:name.index(".")])].resolution ** 2
        if name.startswith("head"):
            return cfg.image_size**2
        return cfg.tokens  # the patch embedding, the encoder and the skip projections

    # each block's scores and value aggregation, across heads, hold no weight
    scores = cfg.encoder_depth * 2 * cfg.tokens**2 * cfg.embed_dim
    return _weight_flops(trust_param_shapes(cfg), positions) + scores


def _unet_flops(cfg: UnetConfig) -> int:
    def positions(name: str) -> int:
        level = int(name[3]) if name.startswith(("enc", "dec")) else 0  # the head: level 0
        return (cfg.image_size // 2**level) ** 2

    return _weight_flops(unet_param_shapes(cfg), positions)


def flop_estimate(model_kind: str, cfg) -> int:
    """Multiply-add estimate for one forward pass (pool/resize/pointwise excluded)."""
    return model_spec(model_kind).flops(cfg)


@dataclass(frozen=True)
class ModelSpec:
    """Everything that differs between model kinds; ``settings`` maps each
    command-line setting only this kind reads to its ``config_class`` field."""

    config_class: type
    param_shapes: Callable[..., dict[str, tuple[int, ...]]]
    flops: Callable[..., int]
    forward_name: str
    settings: dict[str, str]

    @property
    def forward(self) -> Callable:
        # read from the forward module at each use, so a wrapper installed
        # on that module attribute after import is the one that runs
        return getattr(_forward, self.forward_name)


_MODEL_SPECS = {
    TRUST: ModelSpec(TrustConfig, trust_param_shapes, _trust_flops, "forward_trust",
                     {"embed_dim": "embed_dim", "heads": "num_heads", "depth": "encoder_depth",
                      "skips": "skip_enabled"}),
    UNET: ModelSpec(UnetConfig, unet_param_shapes, _unet_flops, "forward_unet",
                    {"base_channels": "base_channels"}),
}
KINDS = tuple(_MODEL_SPECS)


def model_spec(model_kind: str) -> ModelSpec:
    """The one place a model kind is dispatched on; ParameterError if unknown."""
    try:
        return _MODEL_SPECS[model_kind]
    except (KeyError, TypeError):
        raise ParameterError(f"unknown model kind {model_kind!r}") from None


# ---- checkpoints -------------------------------------------------------------


def _blob_path(path: Path) -> Path:
    return path.with_name(path.name + ".bin")


def checkpoint_save(params: dict[str, nd.Tensor], model_kind: str, cfg,
                    path: str | Path) -> None:
    """JSON manifest at ``path`` plus a little-endian f64 blob at ``path + .bin``.

    Tensor payloads are concatenated in sorted-name order so repeated saves
    of the same parameters are byte-identical.
    """
    path = Path(path)
    names = sorted(params)
    blob = b"".join(np.ascontiguousarray(params[n].data, dtype="<f8").tobytes() for n in names)
    manifest = {
        "format_version": CHECKPOINT_VERSION,
        "model_kind": model_kind,
        "config": cfg.to_dict(),
        "tensors": [{"name": n, "shape": list(params[n].data.shape)} for n in names],
        "blob": _blob_path(path).name,
        "blob_sha256": write_blob(_blob_path(path), blob),
    }
    write_json(path, manifest)


# every manifest entry checkpoint_load reads but "tensors", which must equal
# the table its model kind and config fix; config_from_manifest checks those two
_MANIFEST_KEYS = {
    "format_version": (lambda v: is_int(v) and v == CHECKPOINT_VERSION,
                       str(CHECKPOINT_VERSION)),
    "blob": STRING,
    "blob_sha256": STRING,
    "model_kind": STRING,
    "config": OBJECT,
}


def checkpoint_load(path: str | Path) -> tuple[dict[str, nd.Tensor], dict]:
    """Load and validate a checkpoint; returns (params, manifest).

    The stored model kind and config fix every tensor's name and shape, so
    the manifest's ``tensors`` must list exactly those, in name order, and
    the blob is sliced by them. Validation is all-or-nothing: a truncated
    blob, digest mismatch, format version bump, or shape disagreement with
    the stored config raises before any tensor is returned.
    """
    path = Path(path)
    manifest = read_json_object(path, CheckpointError, "checkpoint manifest")
    check_entries(manifest, _MANIFEST_KEYS, f"checkpoint manifest {path}", CheckpointError)
    cfg = config_from_manifest(manifest)
    shapes = sorted(param_shapes(manifest["model_kind"], cfg).items())
    if manifest.get("tensors") != [{"name": n, "shape": list(s)} for n, s in shapes]:
        raise CheckpointError(f"checkpoint manifest {path}: 'tensors' must list the name and "
                              "shape of each parameter of the stored config, in name order")
    blob = read_blob(path.parent / manifest["blob"], manifest["blob_sha256"], CheckpointError,
                     "checkpoint blob")
    sizes = [math.prod(shape) for _, shape in shapes]
    if len(blob) != 8 * sum(sizes):
        raise CheckpointError(f"checkpoint blob holds {len(blob)} bytes, "
                              f"expected {8 * sum(sizes)}")
    flat = np.split(np.frombuffer(blob, dtype="<f8"), np.cumsum(sizes)[:-1])
    params = {name: nd.Tensor(data.reshape(shape).copy(), requires_grad=True, name=name)
              for (name, shape), data in zip(shapes, flat)}
    return params, manifest


def config_from_manifest(manifest: dict):
    try:
        config_class = model_spec(manifest["model_kind"]).config_class
    except ParameterError as exc:
        raise CheckpointError(f"checkpoint names {exc}") from None
    try:
        return config_class(**manifest["config"])
    except (TypeError, ValueError) as exc:  # ValueError covers ParameterError
        raise CheckpointError(
            f"checkpoint config does not fit {config_class.__name__}: {exc}"
        ) from None
