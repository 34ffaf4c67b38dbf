"""Forward passes for the hybrid reconstructor and the convolutional baseline,
and the parameter shape maps they check their parameter sets against."""

from __future__ import annotations

import math

import numpy as np

from .. import ndtensor as nd
from ..errors import ContractError, DimensionError
from .config import TrustConfig, UnetConfig


def trust_param_shapes(cfg: TrustConfig) -> dict[str, tuple[int, ...]]:
    shapes: dict[str, tuple[int, ...]] = {
        "patch_embed.weight": (cfg.patch_dim, cfg.embed_dim),
        "patch_embed.bias": (cfg.embed_dim,),
        "pos_embed": (cfg.tokens, cfg.embed_dim),
    }
    d = cfg.embed_dim
    for i in range(cfg.encoder_depth):
        for proj in ("q", "k", "v", "out"):
            shapes[f"enc{i}.attn.{proj}.weight"] = (d, d)
            if proj != "k":
                # a key bias shifts every score row by a constant, which the
                # row softmax cancels; the parameter would be dead weight
                shapes[f"enc{i}.attn.{proj}.bias"] = (d,)
        shapes[f"enc{i}.ln1.scale"] = (d,)
        shapes[f"enc{i}.ln1.shift"] = (d,)
        shapes[f"enc{i}.mlp.fc1.weight"] = (d, cfg.mlp_dim)
        shapes[f"enc{i}.mlp.fc1.bias"] = (cfg.mlp_dim,)
        shapes[f"enc{i}.mlp.fc2.weight"] = (cfg.mlp_dim, d)
        shapes[f"enc{i}.mlp.fc2.bias"] = (d,)
        shapes[f"enc{i}.ln2.scale"] = (d,)
        shapes[f"enc{i}.ln2.shift"] = (d,)
    plan = cfg.stage_plan()
    for s, stage in enumerate(plan):
        if stage.skip_block is not None:
            shapes[f"skip{s}.proj.weight"] = (stage.out_channels, d, 1, 1)
            shapes[f"skip{s}.proj.bias"] = (stage.out_channels,)
        shapes[f"dec{s}.conv.weight"] = (stage.out_channels, stage.in_channels, 3, 3)
        shapes[f"dec{s}.conv.bias"] = (stage.out_channels,)
    shapes["head.weight"] = (1, plan[-1].out_channels if plan else d, 1, 1)
    shapes["head.bias"] = (1,)
    return shapes


def unet_param_shapes(cfg: UnetConfig) -> dict[str, tuple[int, ...]]:
    c = cfg.base_channels
    return {
        "enc0.conv.weight": (c, 1, 3, 3),
        "enc0.conv.bias": (c,),
        "enc1.conv.weight": (2 * c, c, 3, 3),
        "enc1.conv.bias": (2 * c,),
        "enc2.conv.weight": (4 * c, 2 * c, 3, 3),
        "enc2.conv.bias": (4 * c,),
        "dec1.conv.weight": (2 * c, 4 * c + 2 * c, 3, 3),
        "dec1.conv.bias": (2 * c,),
        "dec0.conv.weight": (c, 2 * c + c, 3, 3),
        "dec0.conv.bias": (c,),
        "head.weight": (1, c, 1, 1),
        "head.bias": (1,),
    }


def _check_params(params: dict, shapes: dict[str, tuple[int, ...]]) -> None:
    """ContractError unless ``params`` holds a tensor of each mapped shape, and no other."""
    for name, shape in shapes.items():
        if name not in params:
            raise ContractError(f"missing parameter tensor {name!r}")
        if params[name].data.shape != shape:
            raise ContractError(
                f"parameter {name!r} has shape {params[name].data.shape}, config expects {shape}"
            )
    extra = sorted(set(params) - set(shapes))
    if extra:
        raise ContractError(f"unexpected parameter tensor {extra[0]!r}")


def _as_image_batch(image, size: int) -> nd.Tensor:
    """The input as a (B, S, S) tensor; DimensionError for any other shape."""
    t = image if isinstance(image, nd.Tensor) else nd.Tensor(np.asarray(image, dtype=np.float64))
    if t.data.ndim != 3 or t.data.shape[1:] != (size, size):
        raise DimensionError(f"expected a (B, {size}, {size}) stack, got shape {t.data.shape}")
    if not np.isfinite(t.data).all():
        raise ContractError("input image contains non-finite values")
    return t


def _linear(x: nd.Tensor, params: dict, prefix: str) -> nd.Tensor:
    """x @ W (+ b, when the parameter set holds one) over the last axis, as
    one 2-D matmul over all leading axes."""
    w = params[f"{prefix}.weight"]
    d_in, d_out = w.data.shape
    lead = x.data.shape[:-1]
    out = nd.matmul(nd.reshape(x, (-1, d_in)), w)
    if f"{prefix}.bias" in params:
        out = nd.add(out, params[f"{prefix}.bias"])
    return nd.reshape(out, lead + (d_out,))


def _conv(x: nd.Tensor, params: dict, prefix: str, stride=1, padding=0) -> nd.Tensor:
    w = params[f"{prefix}.weight"]
    out = nd.batch_conv2d(x, w, stride=stride, padding=padding)
    return nd.add(out, nd.reshape(params[f"{prefix}.bias"], (w.data.shape[0], 1, 1)))


def patchify(image: np.ndarray, patch: int) -> np.ndarray:
    """(..., S, S) images -> (..., T, patch*patch) rows of row-major patches."""
    *lead, s, _ = image.shape
    g = s // patch
    rows = image.reshape(*lead, g, patch, g, patch)
    return np.swapaxes(rows, -3, -2).reshape(*lead, g * g, patch * patch)


def _attention(x: nd.Tensor, params: dict, block: int, cfg: TrustConfig,
               capture: dict | None) -> nd.Tensor:
    """Multi-head self-attention over (B, T, D) tokens; heads are one batched matmul."""
    b, t, d = x.data.shape
    dk, heads = cfg.head_dim, cfg.num_heads

    def split_heads(y, axes):
        return nd.permute(nd.reshape(y, (b, t, heads, dk)), axes)

    # scores are (Q K^T) / sqrt(d_k); folding the scale into Q is equivalent
    q = nd.scalar_mul(_linear(x, params, f"enc{block}.attn.q"), 1.0 / math.sqrt(dk))
    k = _linear(x, params, f"enc{block}.attn.k")
    v = _linear(x, params, f"enc{block}.attn.v")
    scores = nd.batch_matmul(split_heads(q, (0, 2, 1, 3)), split_heads(k, (0, 2, 3, 1)))
    att = nd.softmax(scores, axis=-1)  # (B, H, T, T)
    if capture is not None:
        for h in range(heads):
            capture[f"enc{block}.head{h}.attn"] = att.data[:, h].copy()
    ctx = nd.batch_matmul(att, split_heads(v, (0, 2, 1, 3)))  # (B, H, T, d_k)
    merged = nd.reshape(nd.permute(ctx, (0, 2, 1, 3)), (b, t, d))
    return _linear(merged, params, f"enc{block}.attn.out")


def _encoder_block(x: nd.Tensor, params: dict, block: int, cfg: TrustConfig,
                   capture: dict | None) -> nd.Tensor:
    attn = _attention(x, params, block, cfg, capture)
    x = nd.layernorm(nd.add(x, attn), params[f"enc{block}.ln1.scale"],
                     params[f"enc{block}.ln1.shift"])
    hidden = nd.gelu(_linear(x, params, f"enc{block}.mlp.fc1"))
    out = _linear(hidden, params, f"enc{block}.mlp.fc2")
    return nd.layernorm(nd.add(x, out), params[f"enc{block}.ln2.scale"],
                        params[f"enc{block}.ln2.shift"])


def _tokens_to_grid(tokens: nd.Tensor, cfg: TrustConfig) -> nd.Tensor:
    """(B, T, D) tokens -> (B, D, g, g) feature maps."""
    g = cfg.token_grid
    b = tokens.data.shape[0]
    return nd.reshape(nd.permute(tokens, (0, 2, 1)), (b, cfg.embed_dim, g, g))


def forward_trust(params: dict, cfg: TrustConfig, image,
                  capture: dict | None = None) -> nd.Tensor:
    """Reconstruct a (B, S, S) stack of observation images into (B, S, S)
    estimates in (0, 1); the batch runs as one graph.

    ``params`` must hold exactly the tensors of ``trust_param_shapes(cfg)``.
    Pass a dict as ``capture`` to collect, per encoder block, each head's
    (B, T, T) attention maps and the block's (B, T, D) output tokens.
    """
    _check_params(params, trust_param_shapes(cfg))
    imgs = _as_image_batch(image, cfg.image_size)
    patches = nd.Tensor(patchify(imgs.data, cfg.patch_size))  # (B, T, P)
    tokens = nd.add(_linear(patches, params, "patch_embed"), params["pos_embed"])

    block_outputs: list[nd.Tensor] = []
    for i in range(cfg.encoder_depth):
        tokens = _encoder_block(tokens, params, i, cfg, capture)
        block_outputs.append(tokens)
        if capture is not None:
            capture[f"enc{i}.tokens"] = tokens.data.copy()

    grid = _tokens_to_grid(tokens, cfg)
    cur = nd.adaptive_avg_pool(grid, cfg.pool_grid, cfg.pool_grid)
    for s, stage in enumerate(cfg.stage_plan()):
        if stage.upsampled:
            cur = nd.upsample_nearest(cur, 2)
        if stage.skip_block is not None:
            skip = _tokens_to_grid(block_outputs[stage.skip_block - 1], cfg)
            skip = _conv(skip, params, f"skip{s}.proj")
            skip = nd.resize_bilinear(skip, stage.resolution, stage.resolution)
            cur = nd.concat([cur, skip], axis=1)
        cur = nd.relu(_conv(cur, params, f"dec{s}.conv", padding=1))
    return nd.reshape(nd.sigmoid(_conv(cur, params, "head")), imgs.data.shape)


def forward_unet(params: dict, cfg: UnetConfig, image) -> nd.Tensor:
    """Three-level encoder/decoder baseline; same I/O contract as forward_trust,
    with the tensors of ``unet_param_shapes(cfg)``."""
    _check_params(params, unet_param_shapes(cfg))
    imgs = _as_image_batch(image, cfg.image_size)
    size = cfg.image_size
    x = nd.reshape(imgs, (imgs.data.shape[0], 1, size, size))
    e0 = nd.relu(_conv(x, params, "enc0.conv", padding=1))
    e1 = nd.relu(_conv(e0, params, "enc1.conv", stride=2, padding=1))
    e2 = nd.relu(_conv(e1, params, "enc2.conv", stride=2, padding=1))
    d1 = nd.concat([nd.upsample_nearest(e2, 2), e1], axis=1)
    d1 = nd.relu(_conv(d1, params, "dec1.conv", padding=1))
    d0 = nd.concat([nd.upsample_nearest(d1, 2), e0], axis=1)
    d0 = nd.relu(_conv(d0, params, "dec0.conv", padding=1))
    return nd.reshape(nd.sigmoid(_conv(d0, params, "head")), imgs.data.shape)


def token_gram(params: dict, cfg: TrustConfig, image, mode: str = "embedded") -> np.ndarray:
    """Pre-softmax scaled token similarity matrices at the first encoder
    block: (B, T, T) for a (B, S, S) stack.

    ``embedded`` runs the learned patch embedding and block-1 query/key
    projections; ``raw`` takes plain pixel patches as tokens (the identity
    embedding mode used to compare observation and target geometry).
    """
    imgs = _as_image_batch(image, cfg.image_size)
    patches = patchify(imgs.data, cfg.patch_size)
    if mode == "raw":
        return (patches @ np.swapaxes(patches, -1, -2)) / math.sqrt(cfg.patch_dim)
    if mode != "embedded":
        raise ContractError(f"unknown token_gram mode {mode!r}")
    _check_params(params, trust_param_shapes(cfg))
    tokens = patches @ params["patch_embed.weight"].data + params["patch_embed.bias"].data
    tokens = tokens + params["pos_embed"].data
    q = tokens @ params["enc0.attn.q.weight"].data + params["enc0.attn.q.bias"].data
    k = tokens @ params["enc0.attn.k.weight"].data
    return (q @ np.swapaxes(k, -1, -2)) / math.sqrt(cfg.head_dim)
