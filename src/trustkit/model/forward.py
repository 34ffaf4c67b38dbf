"""Forward passes for the hybrid reconstructor and the convolutional baseline."""

from __future__ import annotations

import math

import numpy as np

from .. import ndtensor as nd
from ..errors import ContractError, DimensionError
from .config import TrustConfig, UnetConfig


def _as_image_batch(image, size: int) -> tuple[nd.Tensor, bool]:
    """The input as a (B, S, S) tensor, and whether it was one (S, S) image."""
    t = image if isinstance(image, nd.Tensor) else nd.Tensor(np.asarray(image, dtype=np.float64))
    single = t.data.ndim == 2
    if t.data.shape[-2:] != (size, size) or t.data.ndim not in (2, 3):
        raise DimensionError(
            f"expected a {size}x{size} image or a (B, {size}, {size}) stack, got shape {t.data.shape}"
        )
    if not np.isfinite(t.data).all():
        raise ContractError("input image contains non-finite values")
    return (nd.reshape(t, (1, size, size)) if single else t), single


def _get(params: dict, name: str, shape: tuple[int, ...]) -> nd.Tensor:
    try:
        t = params[name]
    except KeyError:
        raise ContractError(f"missing parameter tensor {name!r}") from None
    if t.data.shape != shape:
        raise ContractError(
            f"parameter {name!r} has shape {t.data.shape}, config expects {shape}"
        )
    return t


def _linear(x: nd.Tensor, params: dict, prefix: str, d_in: int, d_out: int,
            bias: bool = True) -> nd.Tensor:
    """x @ W (+ b) over the last axis, as one 2-D matmul over all leading axes."""
    lead = x.data.shape[:-1]
    out = nd.matmul(nd.reshape(x, (-1, d_in)), _get(params, f"{prefix}.weight", (d_in, d_out)))
    if bias:
        out = nd.add(out, _get(params, f"{prefix}.bias", (d_out,)))
    return nd.reshape(out, lead + (d_out,))


def _conv(x: nd.Tensor, params: dict, prefix: str, shape, stride=1, padding=0) -> nd.Tensor:
    w = _get(params, f"{prefix}.weight", shape)
    b = _get(params, f"{prefix}.bias", (shape[0],))
    out = nd.batch_conv2d(x, w, stride=stride, padding=padding)
    return nd.add(out, nd.reshape(b, (shape[0], 1, 1)))


def patchify(image: np.ndarray, patch: int) -> np.ndarray:
    """(..., S, S) images -> (..., T, patch*patch) rows of row-major patches."""
    *lead, s, _ = image.shape
    g = s // patch
    rows = image.reshape(*lead, g, patch, g, patch)
    return np.swapaxes(rows, -3, -2).reshape(*lead, g * g, patch * patch)


def _attention(x: nd.Tensor, params: dict, block: int, cfg: TrustConfig,
               capture: dict | None, sample) -> nd.Tensor:
    """Multi-head self-attention over (B, T, D) tokens; heads are one batched matmul."""
    b, t, d = x.data.shape
    dk, heads = cfg.head_dim, cfg.num_heads

    def split_heads(y, axes):
        return nd.permute(nd.reshape(y, (b, t, heads, dk)), axes)

    # scores are (Q K^T) / sqrt(d_k); folding the scale into Q is equivalent
    q = nd.scalar_mul(_linear(x, params, f"enc{block}.attn.q", d, d), 1.0 / math.sqrt(dk))
    k = _linear(x, params, f"enc{block}.attn.k", d, d, bias=False)
    v = _linear(x, params, f"enc{block}.attn.v", d, d)
    scores = nd.batch_matmul(split_heads(q, (0, 2, 1, 3)), split_heads(k, (0, 2, 3, 1)))
    att = nd.softmax(scores, axis=-1)  # (B, H, T, T)
    if capture is not None:
        for h in range(heads):
            capture[f"enc{block}.head{h}.attn"] = att.data[sample, h].copy()
    ctx = nd.batch_matmul(att, split_heads(v, (0, 2, 1, 3)))  # (B, H, T, d_k)
    merged = nd.reshape(nd.permute(ctx, (0, 2, 1, 3)), (b, t, d))
    return _linear(merged, params, f"enc{block}.attn.out", d, d)


def _encoder_block(x: nd.Tensor, params: dict, block: int, cfg: TrustConfig,
                   capture: dict | None, sample) -> nd.Tensor:
    d = cfg.embed_dim
    attn = _attention(x, params, block, cfg, capture, sample)
    x = nd.layernorm(
        nd.add(x, attn),
        _get(params, f"enc{block}.ln1.scale", (d,)),
        _get(params, f"enc{block}.ln1.shift", (d,)),
    )
    hidden = nd.gelu(_linear(x, params, f"enc{block}.mlp.fc1", d, cfg.mlp_dim))
    out = _linear(hidden, params, f"enc{block}.mlp.fc2", cfg.mlp_dim, d)
    return nd.layernorm(
        nd.add(x, out),
        _get(params, f"enc{block}.ln2.scale", (d,)),
        _get(params, f"enc{block}.ln2.shift", (d,)),
    )


def _tokens_to_grid(tokens: nd.Tensor, cfg: TrustConfig) -> nd.Tensor:
    """(B, T, D) tokens -> (B, D, g, g) feature maps."""
    g = cfg.token_grid
    b = tokens.data.shape[0]
    return nd.reshape(nd.permute(tokens, (0, 2, 1)), (b, cfg.embed_dim, g, g))


def _as_output(out: nd.Tensor, size: int, single: bool) -> nd.Tensor:
    """(B, 1, S, S) head output -> (B, S, S), or (S, S) for a single image."""
    return nd.reshape(out, (size, size) if single else (out.data.shape[0], size, size))


def forward_trust(params: dict, cfg: TrustConfig, image,
                  capture: dict | None = None) -> nd.Tensor:
    """Reconstruct observation images into estimates in (0, 1).

    ``image`` is one (S, S) image, giving an (S, S) estimate, or a (B, S, S)
    stack, giving (B, S, S); the batch runs as one graph. Pass a dict as
    ``capture`` to collect per-head attention maps and block outputs for
    inspection, with the input's batch axis: (T, T) and (T, D) arrays for
    one image, (B, T, T) and (B, T, D) for a stack.
    """
    imgs, single = _as_image_batch(image, cfg.image_size)
    t, d = cfg.tokens, cfg.embed_dim
    patches = nd.Tensor(patchify(imgs.data, cfg.patch_size))  # (B, T, P)
    tokens = _linear(patches, params, "patch_embed", cfg.patch_dim, d)
    tokens = nd.add(tokens, _get(params, "pos_embed", (t, d)))

    sample = 0 if single else slice(None)  # what capture keeps of the batch axis
    block_outputs: list[nd.Tensor] = []
    for i in range(cfg.encoder_depth):
        tokens = _encoder_block(tokens, params, i, cfg, capture, sample)
        block_outputs.append(tokens)
        if capture is not None:
            capture[f"enc{i}.tokens"] = tokens.data[sample].copy()

    grid = _tokens_to_grid(tokens, cfg)
    cur = nd.adaptive_avg_pool(grid, cfg.pool_grid, cfg.pool_grid)

    in_ch = d
    for s, (res, out_ch, upsampled) in enumerate(cfg.stage_plan()):
        if upsampled:
            cur = nd.upsample_nearest(cur, 2)
        src_block = cfg.skip_for_stage(s)
        if src_block is not None:
            skip = _tokens_to_grid(block_outputs[src_block - 1], cfg)
            skip = _conv(skip, params, f"skip{s}.proj", (out_ch, d, 1, 1))
            skip = nd.resize_bilinear(skip, res, res)
            cur = nd.concat([cur, skip], axis=1)
            in_ch += out_ch
        cur = nd.relu(_conv(cur, params, f"dec{s}.conv", (out_ch, in_ch, 3, 3), padding=1))
        in_ch = out_ch

    out = nd.sigmoid(_conv(cur, params, "head", (1, in_ch, 1, 1)))
    return _as_output(out, cfg.image_size, single)


def forward_unet(params: dict, cfg: UnetConfig, image) -> nd.Tensor:
    """Three-level encoder/decoder baseline; same I/O contract as forward_trust."""
    imgs, single = _as_image_batch(image, cfg.image_size)
    c, size = cfg.base_channels, cfg.image_size
    x = nd.reshape(imgs, (imgs.data.shape[0], 1, size, size))
    e0 = nd.relu(_conv(x, params, "enc0.conv", (c, 1, 3, 3), padding=1))
    e1 = nd.relu(_conv(e0, params, "enc1.conv", (2 * c, c, 3, 3), stride=2, padding=1))
    e2 = nd.relu(_conv(e1, params, "enc2.conv", (4 * c, 2 * c, 3, 3), stride=2, padding=1))
    d1 = nd.concat([nd.upsample_nearest(e2, 2), e1], axis=1)
    d1 = nd.relu(_conv(d1, params, "dec1.conv", (2 * c, 6 * c, 3, 3), padding=1))
    d0 = nd.concat([nd.upsample_nearest(d1, 2), e0], axis=1)
    d0 = nd.relu(_conv(d0, params, "dec0.conv", (c, 3 * c, 3, 3), padding=1))
    out = nd.sigmoid(_conv(d0, params, "head", (1, c, 1, 1)))
    return _as_output(out, size, single)


def token_gram(params: dict, cfg: TrustConfig, image, mode: str = "embedded") -> np.ndarray:
    """Pre-softmax scaled token similarity matrix at the first encoder block:
    (T, T) for one (S, S) image, (B, T, T) for a (B, S, S) stack.

    ``embedded`` runs the learned patch embedding and block-1 query/key
    projections; ``raw`` takes plain pixel patches as tokens (the identity
    embedding mode used to compare observation and target geometry).
    """
    imgs, single = _as_image_batch(image, cfg.image_size)
    patches = patchify(imgs.data, cfg.patch_size)
    if mode == "raw":
        gram = (patches @ np.swapaxes(patches, -1, -2)) / math.sqrt(cfg.patch_dim)
    elif mode == "embedded":
        tokens = patches @ params["patch_embed.weight"].data + params["patch_embed.bias"].data
        tokens = tokens + params["pos_embed"].data
        q = tokens @ params["enc0.attn.q.weight"].data + params["enc0.attn.q.bias"].data
        k = tokens @ params["enc0.attn.k.weight"].data
        gram = (q @ np.swapaxes(k, -1, -2)) / math.sqrt(cfg.head_dim)
    else:
        raise ContractError(f"unknown token_gram mode {mode!r}")
    return gram[0] if single else gram
