"""Spatial operations on (C, H, W) maps and (B, C, H, W) batches of them:
convolution, pooling, resizing and box filtering.

Pooling, resizing, upsampling and box filtering act on the last two axes
and accept any leading axes. Convolution has one kernel, ``conv2d`` on one
(C, H, W) map; ``batch_conv2d`` runs a (B, C, H, W) batch through it as
one tall map.

These ops follow the gradient rule of ``tensor``: each states one gradient
function per input and leaves it to ``_make`` to run it for a tracking
input and accumulate the result.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from ..errors import DimensionError, ParameterError
from .tensor import Tensor, _make


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of one (C_in, H, W) map with a (C_out, C_in, kh, kw) kernel.

    Tap-shift kernel: the zero-padded map is split into its stride phases,
    rows a::s and columns c::s, each flattened to a (C_in, hq*wq) matrix.
    Tap (i, j) reads phase (i % s, j % s) at a fixed column offset, so the
    forward pass and the kernel gradient are kh*kw GEMMs on views of that
    buffer, and the input gradient is one GEMM per phase over shifted copies
    of the output gradient. Flat positions that wrap across a row are
    computed and discarded; no column (im2col) matrix is formed.
    """
    if x.data.ndim != 3 or kernel.data.ndim != 4:
        raise DimensionError(
            f"conv2d expects (C,H,W) and (Cout,Cin,kh,kw), got {x.data.shape} and {kernel.data.shape}"
        )
    c_in, h, w = x.data.shape
    c_out, kc, kh, kw = kernel.data.shape
    s, p = stride, padding
    oh, ow = _conv_extents(x.data.shape, kernel.data.shape, s, p)
    hp, wp = h + 2 * p, w + 2 * p
    hq, wq = -(-hp // s), -(-wp // s)
    n = hq * wq

    if p == 0 and (hq * s, wq * s) == (h, w):
        padded = x.data
    else:
        padded = np.zeros((c_in, hq * s, wq * s))
        padded[:, p : p + h, p : p + w] = x.data
    buf = padded.reshape(c_in, hq, s, wq, s).transpose(2, 4, 0, 1, 3).reshape(s, s, c_in, n)
    # (i, j, flat column offset of tap (i, j) inside its phase)
    taps = [(i, j, (i // s) * wq + j // s) for i in range(kh) for j in range(kw)]
    lead = taps[-1][2]
    span = n - lead  # every output position lies below span
    w_taps = np.ascontiguousarray(kernel.data.transpose(2, 3, 0, 1))  # (kh, kw, C_out, C_in)

    full = np.empty((c_out, n))
    acc = full[:, :span]
    tmp = np.empty((c_out, span))
    for t, (i, j, off) in enumerate(taps):
        np.matmul(w_taps[i, j], buf[i % s, j % s, :, off : off + span], out=acc if t == 0 else tmp)
        if t:
            acc += tmp
    data = np.ascontiguousarray(full.reshape(c_out, hq, wq)[:, :oh, :ow])

    def padded_grad(g):
        # g_pad[:, lead + q] is the gradient at flat output position q (zero
        # off the output grid); tap (i, j) of the input gradient reads it
        # shifted right by the tap's offset, a view starting at lead - off
        g_pad = np.zeros((c_out, lead + n))
        g_pad[:, lead:].reshape(c_out, hq, wq)[:, :oh, :ow] = g
        return g_pad

    def grad_x(g):
        g_pad = padded_grad(g)
        gbuf = np.zeros((s, s, c_in, n))
        for a in range(s):
            for c in range(s):
                phase = [(i, j, off) for i, j, off in taps if i % s == a and j % s == c]
                if not phase:
                    continue
                shifted = np.empty((len(phase), c_out, n))
                for k, (_, _, off) in enumerate(phase):
                    shifted[k] = g_pad[:, lead - off : lead - off + n]
                w_phase = np.concatenate([w_taps[i, j] for i, j, _ in phase], axis=0)
                np.matmul(w_phase.T, shifted.reshape(-1, n), out=gbuf[a, c])
        gx = gbuf.reshape(s, s, c_in, hq, wq).transpose(2, 3, 0, 4, 1)
        return gx.reshape(c_in, hq * s, wq * s)[:, p : p + h, p : p + w]

    def grad_kernel(g):
        g_span = padded_grad(g)[:, lead : lead + span]
        gw = np.empty((kh, kw, c_out, c_in))
        for i, j, off in taps:
            np.matmul(g_span, buf[i % s, j % s, :, off : off + span].T, out=gw[i, j])
        return gw.transpose(2, 3, 0, 1)

    return _make(data, (x, grad_x), (kernel, grad_kernel))


def _conv_extents(x_shape, k_shape, stride: int, padding: int) -> tuple[int, int]:
    """Output (height, width) of a convolution; raises on inconsistent shapes."""
    c_in, h, w = x_shape[-3:]
    _, kc, kh, kw = k_shape
    if kc != c_in:
        raise DimensionError(f"conv2d channel mismatch: input {c_in}, kernel expects {kc}")
    if stride < 1:
        raise ParameterError(f"conv2d stride must be >= 1, got {stride}")
    hp, wp = h + 2 * padding, w + 2 * padding
    if kh > hp or kw > wp:
        raise DimensionError(f"kernel {kh}x{kw} larger than padded input {hp}x{wp}")
    return (hp - kh) // stride + 1, (wp - kw) // stride + 1


def batch_conv2d(x: Tensor, kernel: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of a (B, C_in, H, W) batch with a (C_out, C_in, kh, kw) kernel.

    The batch runs as one ``conv2d`` call: its samples are stacked into one
    tall (C_in, B*block, W + 2*padding) map, each in a block of ``block``
    rows that holds the sample with its zero padding, so no window spans
    two samples. ``block`` is a multiple of the stride, so every sample's
    output rows start at a fixed row of the tall output.
    """
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise DimensionError(
            f"batch_conv2d expects (B,C,H,W) and (Cout,Cin,kh,kw), got {x.data.shape} "
            f"and {kernel.data.shape}"
        )
    b, c_in, h, w = x.data.shape
    oh, ow = _conv_extents(x.data.shape, kernel.data.shape, stride, padding)
    p = padding
    block = -(-(h + 2 * p) // stride) * stride
    tall = np.zeros((c_in, b, block, w + 2 * p))
    tall[:, :, p : p + h, p : p + w] = x.data.transpose(1, 0, 2, 3)

    def fold_grad(g):
        gx = g.reshape(c_in, b, block, w + 2 * p)[:, :, p : p + h, p : p + w]
        return gx.transpose(1, 0, 2, 3)

    folded = _make(tall.reshape(c_in, b * block, w + 2 * p), (x, fold_grad))
    out = conv2d(folded, kernel, stride=stride)
    c_out = out.data.shape[0]
    # output row r of sample k is row k * block / stride + r of the tall output
    picked = (np.arange(b)[:, None] * (block // stride) + np.arange(oh)).ravel()

    def unfold_grad(g):
        g_tall = np.zeros(out.data.shape)
        g_tall[:, picked] = g.transpose(1, 0, 2, 3).reshape(c_out, b * oh, ow)
        return g_tall

    data = out.data[:, picked].reshape(c_out, b, oh, ow).transpose(1, 0, 2, 3)
    return _make(np.ascontiguousarray(data), (out, unfold_grad))


def upsample_nearest(x: Tensor, factor: int) -> Tensor:
    """Replicate each pixel of a (..., H, W) map into a factor x factor block."""
    if int(factor) != factor or factor < 1:
        raise ParameterError(f"upsample factor must be a positive integer, got {factor}")
    factor = int(factor)
    if x.data.ndim < 3:
        raise DimensionError(f"upsample expects (C,H,W) or (B,C,H,W), got {x.data.shape}")
    *lead, h, w = x.data.shape
    data = np.repeat(np.repeat(x.data, factor, axis=-2), factor, axis=-1)

    def grad(g):
        # each block summed over strided views, along a row of the block
        # and then down its rows: the order a reshape-sum over the two
        # block axes adds in, so the same bits at a third of its cost
        rows = (reduce(np.add, (g[..., i::factor, j::factor] for j in range(factor)))
                for i in range(factor))
        return reduce(np.add, rows)

    return _make(data, (x, grad))


def _separable(x: Tensor, rows: np.ndarray, cols: np.ndarray) -> Tensor:
    """rows @ X @ cols.T for every (H, W) plane X of x: a linear map of the
    last two axes that acts on rows and columns separately."""
    data = np.matmul(np.matmul(rows, x.data), cols.T)
    return _make(data, (x, lambda g: np.matmul(np.matmul(rows.T, g), cols)))


def _check_plane(x: Tensor, op: str, out_h: int, out_w: int) -> None:
    if x.data.ndim < 3:
        raise DimensionError(f"{op} expects (C,H,W) or (B,C,H,W), got {x.data.shape}")
    if out_h < 1 or out_w < 1:
        raise ParameterError(f"{op} output extents must be positive, got {out_h}x{out_w}")


def _pool_matrix(size: int, out: int) -> np.ndarray:
    """(out, size) averaging matrix: row i averages [floor(i*size/out), floor((i+1)*size/out))."""
    mat = np.zeros((out, size))
    for i in range(out):
        lo, hi = i * size // out, (i + 1) * size // out
        mat[i, lo:hi] = 1.0 / (hi - lo)
    return mat


def adaptive_avg_pool(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Average-pool a (..., H, W) map to a fixed (..., out_h, out_w) grid.

    Cell (i, j) averages rows [floor(i*H/out_h), floor((i+1)*H/out_h)) and
    the analogous column window, so the output size never depends on the
    input size.
    """
    _check_plane(x, "adaptive_avg_pool", out_h, out_w)
    h, w = x.data.shape[-2:]
    if out_h > h or out_w > w:
        raise ParameterError(f"pool output {out_h}x{out_w} exceeds input {h}x{w}")
    return _separable(x, _pool_matrix(h, out_h), _pool_matrix(w, out_w))


def _bilinear_matrix(size: int, out: int) -> np.ndarray:
    """(out, size) interpolation matrix with half-pixel sample centers."""
    src = (np.arange(out) + 0.5) * (size / out) - 0.5
    src = np.clip(src, 0.0, size - 1.0)
    lo = np.floor(src).astype(np.intp)
    hi = np.minimum(lo + 1, size - 1)
    frac = src - lo
    mat = np.zeros((out, size))
    np.add.at(mat, (np.arange(out), lo), 1.0 - frac)
    np.add.at(mat, (np.arange(out), hi), frac)
    return mat


def resize_bilinear(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Bilinearly resample a (..., H, W) map to (..., out_h, out_w)."""
    _check_plane(x, "resize_bilinear", out_h, out_w)
    h, w = x.data.shape[-2:]
    return _separable(x, _bilinear_matrix(h, out_h), _bilinear_matrix(w, out_w))


def _box_matrix(size: int, window: int) -> np.ndarray:
    """(size - window + 1, size) matrix whose row i averages [i, i + window)."""
    out = size - window + 1
    idx = np.arange(out)[:, None] + np.arange(window)
    mat = np.zeros((out, size))
    np.put_along_axis(mat, idx, 1.0 / window, axis=1)
    return mat


def box_filter(x: Tensor, window: int) -> Tensor:
    """Mean over every window x window square of the last two axes (valid mode):
    (..., H, W) -> (..., H - window + 1, W - window + 1)."""
    if x.data.ndim < 2:
        raise DimensionError(f"box_filter expects (..., H, W), got {x.data.shape}")
    h, w = x.data.shape[-2:]
    if window < 1 or window > h or window > w:
        raise ParameterError(f"window {window} exceeds image {h}x{w}")
    return _separable(x, _box_matrix(h, window), _box_matrix(w, window))
