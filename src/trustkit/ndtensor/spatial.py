"""Spatial operations on (C, H, W) maps and (B, C, H, W) batches of them:
convolution, pooling, resizing and box filtering.

Pooling, resizing, upsampling and box filtering act on the last two axes
and accept any leading axes. Convolution has one kernel, ``conv2d`` on one
(C, H, W) map; ``batch_conv2d`` runs a (B, C, H, W) batch through it as
one tall map. ``resized_conv2d`` convolves the concatenation of resized
(B, C, h, w) maps at the resolution of each map, from the matrices of its
resize (``nearest_matrix``, ``bilinear_matrix``), without forming the
resized maps: the same result as resizing, concatenating and calling
``batch_conv2d``, up to rounding, for fewer FLOPs when the maps are
upsampled. Both add their (C_out,) bias to the product in place, so no
graph node holds the product without it.

These ops follow the gradient rule of ``tensor``: each states one gradient
function per input and leaves it to ``_make`` to run it for a tracking
input and accumulate the result. The convolutions' gradient work that the
input and the kernel share is their ``prepare``, which ``_make`` runs once
per backward.
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
    forward pass is kh*kw GEMMs on views of that buffer. Backward stacks
    shifted copies of the output gradient per phase; the input gradient is
    one GEMM per phase of the kernel against that stack, and the kernel
    gradient one GEMM per phase of the stack against the buffer. Flat
    positions that wrap across a row are computed and discarded; no column
    (im2col) matrix is formed.
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

    def phase_grads(g):
        """Per stride phase (a, c): its taps, and the output gradient shifted
        by each tap's offset as one (taps, C_out, n) stack."""
        g_pad = padded_grad(g)
        out = []
        for a in range(s):
            for c in range(s):
                phase = [(i, j, off) for i, j, off in taps if i % s == a and j % s == c]
                if not phase:
                    continue
                shifted = np.empty((len(phase), c_out, n))
                for k, (_, _, off) in enumerate(phase):
                    shifted[k] = g_pad[:, lead - off : lead - off + n]
                out.append((a, c, phase, shifted))
        return out

    def grad_x(phases):
        gbuf = np.zeros((s, s, c_in, n))
        for a, c, phase, shifted in phases:
            w_phase = np.concatenate([w_taps[i, j] for i, j, _ in phase], axis=0)
            np.matmul(w_phase.T, shifted.reshape(-1, n), out=gbuf[a, c])
        gx = gbuf.reshape(s, s, c_in, hq, wq).transpose(2, 3, 0, 4, 1)
        return gx.reshape(c_in, hq * s, wq * s)[:, p : p + h, p : p + w]

    def grad_kernel(phases):
        # one GEMM per phase: shifted[k][:, m] is the gradient of the output
        # that tap k reads at buffer column m, zero where that output is off
        # the grid, so the full-width product is the kernel gradient
        gw = np.empty((kh, kw, c_out, c_in))
        for a, c, phase, shifted in phases:
            gw_phase = np.matmul(shifted.reshape(-1, n), buf[a, c].T)
            for k, (i, j, _) in enumerate(phase):
                gw[i, j] = gw_phase[k * c_out : (k + 1) * c_out]
        return gw.transpose(2, 3, 0, 1)

    return _make(data, (x, grad_x), (kernel, grad_kernel), prepare=phase_grads)


def _conv_extents(x_shape, k_shape, stride: int, padding: int) -> tuple[int, int]:
    """Output (height, width) of a convolution; raises on inconsistent shapes."""
    c_in, h, w = x_shape[-3:]
    _, kc, kh, kw = k_shape
    if kc != c_in:
        raise DimensionError(f"conv2d channel mismatch: input {c_in}, kernel expects {kc}")
    if stride < 1:
        raise ParameterError(f"conv2d stride must be >= 1, got {stride}")
    if padding < 0:
        raise ParameterError(f"conv2d padding must be >= 0, got {padding}")
    hp, wp = h + 2 * padding, w + 2 * padding
    if kh > hp or kw > wp:
        raise DimensionError(f"kernel {kh}x{kw} larger than padded input {hp}x{wp}")
    return (hp - kh) // stride + 1, (wp - kw) // stride + 1


def batch_conv2d(x: Tensor, kernel: Tensor, bias: Tensor, stride: int = 1,
                 padding: int = 0) -> Tensor:
    """Cross-correlation of a (B, C_in, H, W) batch with a (C_out, C_in, kh, kw)
    kernel, plus a (C_out,) bias per output channel.

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
    _check_bias(bias, kernel)
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
    data = np.ascontiguousarray(data)
    data += bias.data[:, None, None]
    return _make(data, (out, unfold_grad), (bias, _bias_grad))


def _check_bias(bias: Tensor, kernel: Tensor) -> None:
    if bias.data.shape != kernel.data.shape[:1]:
        raise DimensionError(
            f"convolution bias must have shape {kernel.data.shape[:1]}, got {bias.data.shape}"
        )


def _bias_grad(g: np.ndarray) -> np.ndarray:
    """The gradient of a per-channel bias from that of a (B, C, H, W) output."""
    return g.sum(axis=0).sum(axis=(1, 2))


def resized_conv2d(parts, kernel: Tensor, bias: Tensor, padding: int = 0) -> Tensor:
    """``batch_conv2d`` of the channel concatenation of resized maps, without
    forming them.

    Each part is ``(x, rows, cols)``: a (B, C_k, h_k, w_k) map and the
    (H, h_k) and (W, w_k) matrices of its separable resize, rows @ X @ cols.T
    for each plane X. Every part resizes to the same (H, W), and the
    (C_out, sum C_k, kh, kw) kernel reads the parts' channels in order; the
    stride is 1.

    Tap (i, j) of the zero-padded resized map is rows @ X @ cols.T shifted by
    (i - padding, j - padding): P_i X Q_j.T, where P_i and Q_j are the resize
    matrices with their rows shifted so and zero past either edge. Hence

        out = sum_i P_i (sum_j (W_ij . X) Q_j.T),

    with W_ij . X the channel mix of tap (i, j). Per part that is three GEMMs
    (the sub-pixel argument of Shi et al., CVPR 2016): all taps' channel mix
    at the part's own resolution, the column expansion against the stacked
    [Q_0.T; Q_1.T; ...], and the row expansion by [P_0 P_1 ...]. Backward runs
    them transposed; each part's gradient at its own resolution is formed
    once, by the op's ``prepare``, and serves both its input's gradient and
    the kernel's.
    """
    if kernel.data.ndim != 4:
        raise DimensionError(
            f"resized_conv2d expects a (Cout,Cin,kh,kw) kernel, got {kernel.data.shape}"
        )
    parts = [(x, np.asarray(rows, dtype=np.float64), np.asarray(cols, dtype=np.float64))
             for x, rows, cols in parts]
    if not parts:
        raise DimensionError("resized_conv2d needs at least one part")
    b = parts[0][0].data.shape[0]
    out_h, out_w = parts[0][1].shape[0], parts[0][2].shape[0]
    for x, rows, cols in parts:
        if x.data.ndim != 4 or x.data.shape[0] != b:
            raise DimensionError(
                f"resized_conv2d expects (B,C,h,w) parts with B={b}, got {x.data.shape}"
            )
        h, w = x.data.shape[2:]
        if rows.shape != (out_h, h) or cols.shape != (out_w, w):
            raise DimensionError(
                f"resize matrices {rows.shape} and {cols.shape} do not map a {h}x{w} "
                f"map to {out_h}x{out_w}"
            )
    c_total = sum(x.data.shape[1] for x, _, _ in parts)
    c_out, _, kh, kw = kernel.data.shape
    oh, ow = _conv_extents((c_total, out_h, out_w), kernel.data.shape, 1, padding)
    _check_bias(bias, kernel)
    w_taps = kernel.data.transpose(2, 3, 0, 1)  # (kh, kw, C_out, C_in)

    # per part: its kernel channels, its kernel rows in tap-major (i, j, o)
    # order, [P_0 P_1 ...] and [Q_0.T; Q_1.T; ...]
    plans = []
    lo = 0
    for x, rows, cols in parts:
        c = x.data.shape[1]
        w_mix = np.ascontiguousarray(w_taps[..., lo : lo + c]).reshape(kh * kw * c_out, c)
        plans.append((slice(lo, lo + c), w_mix, _tap_stack(rows, kh, oh, padding),
                      _tap_stack(cols, kw, ow, padding).T))
        lo += c

    # each part's column-expanded map, (B, C_out, (i, a), OW), stacked along
    # (i, a): one batched GEMM against the stacked [P_i] then sums the parts
    stacked = np.empty((b, c_out, kh * sum(x.data.shape[2] for x, _, _ in parts), ow))
    at = 0
    for (x, _, _), (_, w_mix, _, q_cat) in zip(parts, plans):
        _, c, h, w = x.data.shape
        mixed = (w_mix @ _channels_first(x.data)).reshape(kh, kw, c_out, b, h, w)
        cols_done = mixed.transpose(3, 0, 2, 4, 1, 5).reshape(-1, kw * w) @ q_cat
        stacked[:, :, at : at + kh * h].reshape(b, c_out, kh, h, ow)[...] = (
            cols_done.reshape(b, kh, c_out, h, ow).transpose(0, 2, 1, 3, 4))
        at += kh * h
    data = np.matmul(np.concatenate([p_cat for _, _, p_cat, _ in plans], axis=1), stacked)
    data += bias.data[:, None, None]

    def low_grad(k, g):
        """The gradient of part k's channel mix, ((i, j, o), (B, a, d)): the
        output gradient brought to the part's own resolution."""
        _, c, h, w = parts[k][0].data.shape
        _, _, p_cat, q_cat = plans[k]
        rows_done = np.matmul(p_cat.T, g).reshape(b, c_out, kh, h, ow)
        rows_done = rows_done.transpose(2, 1, 0, 3, 4).reshape(-1, ow) @ q_cat.T
        mixed = rows_done.reshape(kh, c_out, b, h, kw, w).transpose(0, 4, 1, 2, 3, 5)
        return mixed.reshape(kh * kw * c_out, b * h * w)

    def prepare(g):  # the output gradient and every part's low_grad
        return g, [low_grad(k, g) for k in range(len(parts))]

    def grad_part(k):
        def grad(gs):
            _, c, h, w = parts[k][0].data.shape
            return (plans[k][1].T @ gs[1][k]).reshape(c, b, h, w).transpose(1, 0, 2, 3)
        return grad

    def grad_kernel(gs):
        gw = np.empty((kh, kw, c_out, c_total))
        for (x, _, _), (chans, _, _, _), g_low in zip(parts, plans, gs[1]):
            gw[..., chans] = (g_low @ _channels_first(x.data).T).reshape(kh, kw, c_out, -1)
        return gw.transpose(2, 3, 0, 1)

    edges = [(x, grad_part(k)) for k, (x, _, _) in enumerate(parts)]
    return _make(data, *edges, (kernel, grad_kernel), (bias, lambda gs: _bias_grad(gs[0])),
                 prepare=prepare)


def _channels_first(a: np.ndarray) -> np.ndarray:
    """A (B, C, h, w) batch as one (C, B*h*w) matrix."""
    return a.transpose(1, 0, 2, 3).reshape(a.shape[1], -1)


def _tap_stack(mat: np.ndarray, taps: int, out: int, padding: int) -> np.ndarray:
    """[M_0 M_1 ...], (out, taps * cols): M_t[y] is row y + t - padding of
    ``mat``, zero where that row lies past either edge."""
    padded = np.zeros((mat.shape[0] + 2 * padding, mat.shape[1]))
    padded[padding : padding + mat.shape[0]] = mat
    return np.concatenate([padded[t : t + out] for t in range(taps)], axis=1)


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


def nearest_matrix(size: int, out: int) -> np.ndarray:
    """(out, size) 0/1 matrix whose row i picks entry i * size // out: along
    each axis, ``upsample_nearest`` by f when out = f * size, and the
    identity when out = size."""
    mat = np.zeros((out, size))
    mat[np.arange(out), np.arange(out) * size // out] = 1.0
    return mat


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


def bilinear_matrix(size: int, out: int) -> np.ndarray:
    """(out, size) interpolation matrix with half-pixel sample centers: the
    resize ``resize_bilinear`` applies along each axis."""
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
    return _separable(x, bilinear_matrix(h, out_h), bilinear_matrix(w, out_w))


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
