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


def _as_image_batch(image, size: int) -> np.ndarray:
    """``token_gram``'s (B, S, S) image stack as a float64 array; DimensionError otherwise."""
    a = np.asarray(image, dtype=np.float64)
    if a.ndim != 3 or a.shape[1:] != (size, size):
        raise DimensionError(f"expected a (B, {size}, {size}) stack, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ContractError("input image contains non-finite values")
    return a


def input_stage(cfg: TrustConfig | UnetConfig, y) -> nd.Tensor:
    """The input stage both models share, and their one input form: a (B, m)
    array of normalized measurements, reshaped to the (B, S, S) images their
    networks read. Only a square operator, m = S^2, has such images; any other
    m or shape, a (B, S, S) stack included, is a DimensionError."""
    s = cfg.image_size
    a = np.asarray(y, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != s * s:
        raise DimensionError(f"a {a.shape} array is not (B, {s * s}) measurements of "
                             f"{s}x{s} images; the models need a square operator dataset")
    if not np.isfinite(a).all():
        raise ContractError("input measurements contain non-finite values")
    return nd.Tensor(a.reshape(-1, s, s))


def _linear(x: nd.Tensor, params: dict, prefix: str) -> nd.Tensor:
    """x @ W (+ b, when the parameter set holds one) over the last axis, as
    one 2-D matmul over all leading axes."""
    w = params[f"{prefix}.weight"]
    d_in, d_out = w.data.shape
    lead = x.data.shape[:-1]
    out = nd.matmul(nd.reshape(x, (-1, d_in)), w, bias=params.get(f"{prefix}.bias"))
    return nd.reshape(out, lead + (d_out,))


def _conv(x: nd.Tensor, params: dict, prefix: str, stride=1, padding=0) -> nd.Tensor:
    return nd.batch_conv2d(x, params[f"{prefix}.weight"], params[f"{prefix}.bias"],
                           stride=stride, padding=padding)


def patchify(image: np.ndarray, patch: int) -> np.ndarray:
    """(..., S, S) images -> (..., T, patch*patch) rows of row-major patches."""
    *lead, s, _ = image.shape
    g = s // patch
    rows = image.reshape(*lead, g, patch, g, patch)
    return np.swapaxes(rows, -3, -2).reshape(*lead, g * g, patch * patch)


def _embed(imgs: np.ndarray, params: dict, cfg: TrustConfig) -> nd.Tensor:
    """(B, S, S) images -> (B, T, D) tokens: the patch embedding plus positions."""
    patches = nd.Tensor(patchify(imgs, cfg.patch_size))
    return nd.add(_linear(patches, params, "patch_embed"), params["pos_embed"])


def _attention(x: nd.Tensor, params: dict, block: int, cfg: TrustConfig,
               capture: dict | None) -> nd.Tensor:
    """Multi-head self-attention over (B, T, D) tokens: the query, key and
    value projections, one ``nd.attention`` op over all heads, and the
    output projection. The graph so holds each projection once and the
    attention weights, but not the scores."""
    q, k, v = (_linear(x, params, f"enc{block}.attn.{proj}") for proj in "qkv")
    ctx, weights = nd.attention(q, k, v, cfg.num_heads)  # weights: (B, H, T, T)
    if capture is not None:
        for h in range(cfg.num_heads):
            capture[f"enc{block}.head{h}.attn"] = weights[:, h].copy()
    return _linear(ctx, params, f"enc{block}.attn.out")


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


def forward_trust(params: dict, cfg: TrustConfig, y,
                  capture: dict | None = None) -> nd.Tensor:
    """Reconstruct a (B, m) measurement stack, and no other shape, through
    ``input_stage`` into (B, S, S) estimates in (0, 1); the batch runs as one graph.

    ``params`` must hold exactly the tensors of ``trust_param_shapes(cfg)``.
    Pass a dict as ``capture`` to collect, per encoder block, each head's
    (B, T, T) attention maps and the block's (B, T, D) output tokens.

    The decoder starts at the token grid: stage 0 reads the last block's
    tokens as (B, D, S/patch, S/patch) maps. A stage that upsamples or takes
    a skip convolves, in one ``resized_conv2d``, the previous stage through
    its nearest-neighbour upsampling (the identity when the stage does not
    upsample) and the projected skip through its bilinear resize from the
    token grid. So the convolution runs at the resolution its inputs come
    from, and the upsampled map, the resized skip and their concatenation
    are never formed. The other stages run ``batch_conv2d`` at full
    resolution.

    Every bias goes into the op that makes its product (``nd.matmul``, the
    convolutions), and each block's attention is one ``nd.attention`` op, so
    a training step's graph keeps no product that only a bias add reads and
    no scores that only the softmax reads.
    """
    _check_params(params, trust_param_shapes(cfg))
    tokens = _embed(input_stage(cfg, y).data, params, cfg)

    block_outputs: list[nd.Tensor] = []
    for i in range(cfg.encoder_depth):
        tokens = _encoder_block(tokens, params, i, cfg, capture)
        block_outputs.append(tokens)
        if capture is not None:
            capture[f"enc{i}.tokens"] = tokens.data.copy()

    cur = _tokens_to_grid(tokens, cfg)
    for s, stage in enumerate(cfg.stage_plan()):
        prefix, res = f"dec{s}.conv", stage.resolution
        if stage.upsampled or stage.skip_block is not None:
            near = nd.nearest_matrix(cur.data.shape[-1], res)
            parts = [(cur, near, near)]
            if stage.skip_block is not None:
                skip = _tokens_to_grid(block_outputs[stage.skip_block - 1], cfg)
                skip = _conv(skip, params, f"skip{s}.proj")
                lin = nd.bilinear_matrix(cfg.token_grid, res)
                parts.append((skip, lin, lin))
            out = nd.resized_conv2d(parts, params[f"{prefix}.weight"],
                                    params[f"{prefix}.bias"], padding=1)
        else:
            out = _conv(cur, params, prefix, padding=1)
        cur = nd.relu(out)
    return nd.reshape(nd.sigmoid(_conv(cur, params, "head")), (-1, cfg.image_size, cfg.image_size))


def forward_unet(params: dict, cfg: UnetConfig, y) -> nd.Tensor:
    """Three-level encoder/decoder baseline with the tensors of ``unet_param_shapes(cfg)``
    and forward_trust's contract: only (B, m) measurements in, (B, S, S) estimates out."""
    _check_params(params, unet_param_shapes(cfg))
    x = nd.reshape(input_stage(cfg, y), (-1, 1, cfg.image_size, cfg.image_size))
    e0 = nd.relu(_conv(x, params, "enc0.conv", padding=1))
    e1 = nd.relu(_conv(e0, params, "enc1.conv", stride=2, padding=1))
    e2 = nd.relu(_conv(e1, params, "enc2.conv", stride=2, padding=1))
    d1 = nd.concat([nd.upsample_nearest(e2, 2), e1], axis=1)
    d1 = nd.relu(_conv(d1, params, "dec1.conv", padding=1))
    d0 = nd.concat([nd.upsample_nearest(d1, 2), e0], axis=1)
    d0 = nd.relu(_conv(d0, params, "dec0.conv", padding=1))
    return nd.reshape(nd.sigmoid(_conv(d0, params, "head")), (-1, cfg.image_size, cfg.image_size))


def token_gram(params: dict, cfg: TrustConfig, image, mode: str = "embedded") -> np.ndarray:
    """Pre-softmax scaled token similarity matrices at the first encoder
    block: (B, T, T) for a (B, S, S) image stack, and no other shape.

    ``embedded`` runs ``forward_trust``'s own patch embedding and block-1
    query/key projections; ``raw`` takes plain pixel patches as tokens (the
    identity embedding mode used to compare observation and target geometry).
    """
    imgs = _as_image_batch(image, cfg.image_size)
    if mode == "raw":
        patches = patchify(imgs, cfg.patch_size)
        return (patches @ np.swapaxes(patches, -1, -2)) / math.sqrt(cfg.patch_dim)
    if mode != "embedded":
        raise ContractError(f"unknown token_gram mode {mode!r}")
    _check_params(params, trust_param_shapes(cfg))
    tokens = _embed(imgs, params, cfg)
    q, k = (_linear(tokens, params, f"enc0.attn.{proj}").data for proj in "qk")
    return (q @ np.swapaxes(k, -1, -2)) / math.sqrt(cfg.head_dim)
