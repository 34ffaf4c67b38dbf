"""Parameter sets: seeded initialization, counting, checkpoints."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .. import ndtensor as nd
from ..errors import CheckpointError, ParameterError
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


def _trust_flops(cfg: TrustConfig) -> int:
    t, d = cfg.tokens, cfg.embed_dim
    total = t * cfg.patch_dim * d  # patch embedding
    per_block = 4 * t * d * d  # q, k, v, out projections
    per_block += 2 * t * t * d  # scores and value aggregation across heads
    per_block += 2 * t * d * cfg.mlp_dim
    total += cfg.encoder_depth * per_block
    plan = cfg.stage_plan()
    for stage in plan:
        if stage.skip_block is not None:
            total += cfg.token_grid**2 * stage.out_channels * d  # 1x1 skip projection
        total += stage.resolution**2 * stage.out_channels * stage.in_channels * 9
    total += cfg.image_size**2 * (plan[-1].out_channels if plan else d)  # 1x1 head
    return total


def _unet_flops(cfg: UnetConfig) -> int:
    s = cfg.image_size
    c = cfg.base_channels
    total = s * s * c * 1 * 9
    total += (s // 2) ** 2 * (2 * c) * c * 9
    total += (s // 4) ** 2 * (4 * c) * (2 * c) * 9
    total += (s // 2) ** 2 * (2 * c) * (6 * c) * 9
    total += s * s * c * (3 * c) * 9
    total += s * s * 1 * c
    return total


def flop_estimate(model_kind: str, cfg) -> int:
    """Multiply-add estimate for one forward pass (pool/resize/pointwise excluded)."""
    return model_spec(model_kind).flops(cfg)


@dataclass(frozen=True)
class ModelSpec:
    """Everything that differs between model kinds."""

    config_class: type
    param_shapes: Callable[..., dict[str, tuple[int, ...]]]
    flops: Callable[..., int]
    forward_name: str

    @property
    def forward(self) -> Callable:
        # read from the forward module at each use, so a wrapper installed
        # on that module attribute after import is the one that runs
        return getattr(_forward, self.forward_name)


_MODEL_SPECS = {
    TRUST: ModelSpec(TrustConfig, trust_param_shapes, _trust_flops, "forward_trust"),
    UNET: ModelSpec(UnetConfig, unet_param_shapes, _unet_flops, "forward_unet"),
}


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
        "blob_sha256": hashlib.sha256(blob).hexdigest(),
    }
    _blob_path(path).write_bytes(blob)
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


_MANIFEST_KEYS = ("blob", "blob_sha256", "tensors", "model_kind", "config")


def checkpoint_load(path: str | Path) -> tuple[dict[str, nd.Tensor], dict]:
    """Load and validate a checkpoint; returns (params, manifest).

    Validation is all-or-nothing: a truncated blob, digest mismatch, format
    version bump, or shape disagreement with the stored config raises
    before any tensor is returned.
    """
    path = Path(path)
    try:
        manifest = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CheckpointError(f"checkpoint manifest {path} does not hold a JSON object")
    version = manifest.get("format_version")
    if type(version) is not int or version != CHECKPOINT_VERSION:  # 1.0 and true are not 1
        raise CheckpointError(
            f"checkpoint format version {version} != {CHECKPOINT_VERSION}"
        )
    missing = [key for key in _MANIFEST_KEYS if key not in manifest]
    if missing:
        raise CheckpointError(f"checkpoint manifest {path} lacks {', '.join(missing)}")
    for key in ("blob", "blob_sha256"):
        if not isinstance(manifest[key], str):
            raise CheckpointError(f"checkpoint manifest {path}: {key!r} must be a string")
    if not isinstance(manifest["tensors"], list) or \
            not all(_is_tensor_entry(t) for t in manifest["tensors"]):
        raise CheckpointError(
            f"checkpoint manifest {path}: 'tensors' must list {{name, shape}} objects "
            "with a string name and a shape of non-negative integers"
        )
    blob_file = path.parent / manifest["blob"]
    try:
        blob = blob_file.read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the name
        raise CheckpointError(f"unreadable checkpoint blob {blob_file}: {exc}") from exc
    if hashlib.sha256(blob).hexdigest() != manifest["blob_sha256"]:
        raise CheckpointError(f"checkpoint blob digest mismatch for {blob_file}")
    expected_len = sum(int(np.prod(t["shape"])) for t in manifest["tensors"]) * 8
    if len(blob) != expected_len:
        raise CheckpointError(
            f"checkpoint blob holds {len(blob)} bytes, expected {expected_len}"
        )
    cfg = config_from_manifest(manifest)
    expected_shapes = param_shapes(manifest["model_kind"], cfg)
    stored = {t["name"]: tuple(t["shape"]) for t in manifest["tensors"]}
    if stored != expected_shapes:
        raise CheckpointError(
            "checkpoint tensor shapes disagree with the stored config"
        )
    params: dict[str, nd.Tensor] = {}
    offset = 0
    flat = np.frombuffer(blob, dtype="<f8")
    for entry in manifest["tensors"]:
        size = int(np.prod(entry["shape"]))
        data = flat[offset : offset + size].reshape(entry["shape"]).copy()
        params[entry["name"]] = nd.Tensor(data, requires_grad=True, name=entry["name"])
        offset += size
    return params, manifest


def _is_tensor_entry(entry) -> bool:
    if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
        return False
    shape = entry.get("shape")
    return isinstance(shape, list) and all(
        isinstance(d, int) and not isinstance(d, bool) and d >= 0 for d in shape
    )


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
