import math
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustkit import ndtensor as nd
from trustkit.errors import ContractError, DimensionError, ParameterError

from gradcheck import assert_grads_close, finite_difference, rel_err

_SEED = 20240511


@pytest.fixture
def rng(request):
    """This test's own generator, seeded from a constant and the test's node
    id, so its draws do not depend on which tests ran before it."""
    return np.random.default_rng([_SEED, zlib.crc32(request.node.nodeid.encode())])


def _grad_of_sum(op, *arrays, make_loss=None):
    """Analytic grads of sum(op(...)) next to finite differences of the same."""
    tensors = [nd.Tensor(a, requires_grad=True) for a in arrays]
    out = op(*tensors)
    loss = nd.reduce_sum(out) if out.data.size != 1 else out
    loss.backward()

    def f(*arrs):
        res = op(*[nd.Tensor(a) for a in arrs])
        return float(res.data.sum())

    numeric = finite_difference(f, [a.copy() for a in arrays])
    return tensors, numeric


def _check(op, *arrays, tol=1e-5):
    tensors, numeric = _grad_of_sum(op, *arrays)
    for t, n in zip(tensors, numeric):
        assert rel_err(t.grad, n) < tol


# ---- matmul -----------------------------------------------------------------


def test_matmul_identity():
    a = nd.Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = nd.matmul(a, nd.Tensor(np.eye(2)))
    assert np.array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])
    out2 = nd.matmul(nd.Tensor(np.eye(2)), nd.Tensor([[5.0], [7.0]]))
    assert np.array_equal(out2.data, [[5.0], [7.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(3, 4\).*\(3, 2\)"):
        nd.matmul(nd.Tensor(np.zeros((3, 4))), nd.Tensor(np.zeros((3, 2))))


def test_matmul_gradient(rng):
    _check(nd.matmul, rng.standard_normal((3, 4)), rng.standard_normal((4, 2)), tol=1e-6)


# ---- softmax ----------------------------------------------------------------


def test_softmax_uniform():
    out = nd.softmax(nd.Tensor([0.0, 0.0, 0.0]), axis=-1)
    assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_softmax_saturation():
    out = nd.softmax(nd.Tensor([1e4, 0.0]), axis=-1)
    assert abs(out.data[0] - 1.0) < 1e-12
    assert out.data[1] < 1e-12


def test_softmax_rows_sum_to_one(rng):
    x = rng.standard_normal((6, 9))
    out = nd.softmax(nd.Tensor(x), axis=-1)
    assert np.all(np.abs(out.data.sum(axis=-1) - 1.0) <= 1e-12)
    assert np.all(out.data > 0)


def test_softmax_gradient(rng):
    # weighted sum so the gradient is not identically zero
    r = rng.standard_normal(5)

    def op(t):
        return nd.reduce_sum(nd.mul(nd.softmax(t, axis=-1), nd.Tensor(r)))

    _check(op, rng.standard_normal(5), tol=1e-6)


# ---- conv2d -----------------------------------------------------------------


def test_conv2d_identity_kernel(rng):
    x = rng.standard_normal((1, 3, 3))
    k = np.ones((1, 1, 1, 1))
    out = nd.conv2d(nd.Tensor(x), nd.Tensor(k))
    assert np.array_equal(out.data, x)


def test_conv2d_overlap_counts():
    x = np.ones((1, 4, 4))
    k = np.ones((1, 1, 3, 3))
    out = nd.conv2d(nd.Tensor(x), nd.Tensor(k), padding=1)
    assert out.data.shape == (1, 4, 4)
    assert out.data[0, 0, 0] == 4.0
    assert out.data[0, 1, 1] == 9.0
    assert out.data[0, 0, 3] == 4.0


def test_conv2d_output_extents(rng):
    x = nd.Tensor(rng.standard_normal((2, 7, 6)))
    k = nd.Tensor(rng.standard_normal((3, 2, 3, 3)))
    out = nd.conv2d(x, k, stride=2, padding=1)
    assert out.data.shape == (3, (7 + 2 - 3) // 2 + 1, (6 + 2 - 3) // 2 + 1)


def test_conv2d_kernel_too_large():
    with pytest.raises(DimensionError):
        nd.conv2d(nd.Tensor(np.zeros((1, 3, 3))), nd.Tensor(np.zeros((1, 1, 5, 5))))


def test_conv2d_gradient(rng):
    def op(x, k):
        return nd.conv2d(x, k, stride=1, padding=1)

    _check(op, rng.standard_normal((2, 5, 5)), rng.standard_normal((3, 2, 3, 3)), tol=1e-5)


def test_conv2d_gradient_strided(rng):
    def op(x, k):
        return nd.conv2d(x, k, stride=2, padding=0)

    _check(op, rng.standard_normal((1, 6, 6)), rng.standard_normal((2, 1, 2, 2)), tol=1e-5)


def _check_weighted(op, *arrays, tol=1e-5):
    """Finite-difference check of sum(op(...) * r) for a fixed random r."""
    shape = op(*[nd.Tensor(a) for a in arrays]).data.shape
    r = np.random.default_rng(7).standard_normal(shape)
    _check(lambda *ts: nd.reduce_sum(nd.mul(op(*ts), nd.Tensor(r))), *arrays, tol=tol)


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1])
@pytest.mark.parametrize("ksize", [1, 3, 7])
def test_batch_conv2d_gradient(batch, stride, padding, ksize, rng):
    x = rng.standard_normal((batch, 2, 8, 9))
    k = rng.standard_normal((3, 2, ksize, ksize))

    def op(xt, kt, bt):
        return nd.batch_conv2d(xt, kt, bt, stride=stride, padding=padding)

    _check_weighted(op, x, k, rng.standard_normal(3))


@pytest.mark.parametrize("stride,padding,ksize", [(1, 1, 3), (2, 1, 3), (2, 0, 7), (1, 3, 7)])
@pytest.mark.parametrize("height,width", [(9, 8), (8, 9)])
def test_batch_conv2d_matches_per_sample_conv2d(stride, padding, ksize, height, width, rng):
    x = rng.standard_normal((3, 2, height, width))
    k = nd.Tensor(rng.standard_normal((4, 2, ksize, ksize)), requires_grad=True)
    bias = nd.Tensor(rng.standard_normal(4), requires_grad=True)
    out = nd.batch_conv2d(nd.Tensor(x), k, bias, stride=stride, padding=padding)
    r = rng.standard_normal(out.data.shape)
    nd.reduce_sum(nd.mul(out, nd.Tensor(r))).backward()
    for b in range(3):
        single = nd.conv2d(nd.Tensor(x[b]), k, stride=stride, padding=padding)
        assert np.abs(out.data[b] - single.data - bias.data[:, None, None]).max() <= 1e-12
    # the reference: an explicit window sum per output pixel
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh, ow = out.data.shape[2:]
    ref = np.empty_like(out.data)
    for i in range(oh):
        for j in range(ow):
            win = xp[:, :, i * stride : i * stride + ksize, j * stride : j * stride + ksize]
            ref[:, :, i, j] = np.einsum("bcij,ocij->bo", win, k.data) + bias.data
    assert np.abs(out.data - ref).max() <= 1e-12
    assert np.abs(bias.grad - r.sum(axis=(0, 2, 3))).max() <= 1e-12 * np.abs(r).sum()
    # the kernel gradient: tap (i, j) correlates the output gradient with
    # the input window it reads
    ref_grad = np.empty_like(k.data)
    for i in range(ksize):
        for j in range(ksize):
            win = xp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride]
            ref_grad[:, :, i, j] = np.einsum("boyx,bcyx->oc", r, win)
    assert np.abs(k.grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()


def test_batch_conv2d_rejects_unbatched_input():
    with pytest.raises(DimensionError):
        nd.batch_conv2d(nd.Tensor(np.zeros((1, 4, 4))), nd.Tensor(np.zeros((1, 1, 3, 3))),
                        nd.Tensor(np.zeros(1)))
    with pytest.raises(DimensionError):
        nd.conv2d(nd.Tensor(np.zeros((1, 1, 4, 4))), nd.Tensor(np.zeros((1, 1, 3, 3))))


# ---- resized convolution --------------------------------------------------------

# each case: its parts as (resize, channels, input side, output side), the
# kernel size and the padding
_RESIZED_CASES = {
    "nearest-x2": ([("nearest", 2, 4, 8)], 3, 1),
    "nearest-x4": ([("nearest", 2, 4, 16)], 3, 0),
    "bilinear-8-to-16": ([("bilinear", 2, 8, 16)], 1, 0),
    "bilinear-8-to-32": ([("bilinear", 3, 8, 32)], 3, 1),
    "nearest-and-bilinear": ([("nearest", 3, 8, 16), ("bilinear", 2, 8, 16)], 3, 1),
    "identity-and-bilinear": ([("identity", 2, 16, 16), ("bilinear", 3, 8, 16)], 1, 1),
    "nearest-x4-and-identity": ([("nearest", 2, 4, 16), ("identity", 1, 16, 16)], 3, 0),
}


def _resize_matrix(kind, side, out):
    return {"nearest": nd.nearest_matrix, "bilinear": nd.bilinear_matrix,
            "identity": lambda size, _: np.eye(size)}[kind](side, out)


def _resize_reference(kind, x, side, out):
    if kind == "nearest":
        return nd.upsample_nearest(x, out // side)
    return nd.resize_bilinear(x, out, out) if kind == "bilinear" else x


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("case", sorted(_RESIZED_CASES))
def test_resized_conv2d_matches_resize_concat_conv(case, batch, rng):
    spec, ksize, padding = _RESIZED_CASES[case]
    arrays = [rng.standard_normal((batch, c, side, side)) for _, c, side, _ in spec]
    kernel = rng.standard_normal((4, sum(c for _, c, _, _ in spec), ksize, ksize))
    bias = rng.standard_normal(4)

    def run(build):
        xs = [nd.Tensor(a, requires_grad=True) for a in arrays]
        k, b = nd.Tensor(kernel, requires_grad=True), nd.Tensor(bias, requires_grad=True)
        out = build(xs, k, b)
        nd.reduce_sum(nd.mul(out, nd.Tensor(weights))).backward()
        return [out.data] + [t.grad for t in xs + [k, b]]

    def fused(xs, k, b):
        parts = [(x, _resize_matrix(kind, side, out), _resize_matrix(kind, side, out))
                 for x, (kind, _, side, out) in zip(xs, spec)]
        return nd.resized_conv2d(parts, k, b, padding=padding)

    def reference(xs, k, b):
        maps = [_resize_reference(kind, x, side, out) for x, (kind, _, side, out) in zip(xs, spec)]
        return nd.batch_conv2d(nd.concat(maps, axis=1), k, b, padding=padding)

    out_side = spec[0][3] + 2 * padding - ksize + 1
    weights = rng.standard_normal((batch, 4, out_side, out_side))
    for got, want in zip(run(fused), run(reference)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_resized_conv2d_gradient(rng):
    near, lin = nd.nearest_matrix(3, 6), nd.bilinear_matrix(4, 6)

    def op(a, b, k, bias):
        return nd.resized_conv2d([(a, near, near), (b, lin, lin)], k, bias, padding=1)

    _check_weighted(op, rng.standard_normal((2, 2, 3, 3)), rng.standard_normal((2, 1, 4, 4)),
                    rng.standard_normal((3, 3, 3, 3)), rng.standard_normal(3))


def _x(*shape):
    return nd.Tensor(np.zeros(shape))


_UP = nd.nearest_matrix(4, 8)


@pytest.mark.parametrize("parts, kernel, match", [
    ([(_x(2, 3, 4, 4), _UP, _UP)], _x(1, 4, 3, 3), "channel mismatch"),
    ([(_x(2, 3, 4, 4), _UP, _UP), (_x(3, 1, 4, 4), _UP, _UP)], _x(1, 4, 3, 3), "B=2"),
    ([(_x(2, 3, 5, 4), _UP, _UP)], _x(1, 3, 3, 3), "do not map a 5x4"),
    ([(_x(2, 3, 4, 4), _UP, nd.nearest_matrix(5, 8))], _x(1, 3, 3, 3), "do not map a 4x4"),
    ([(_x(2, 3, 4, 4), _UP, _UP), (_x(2, 1, 4, 4), nd.nearest_matrix(4, 12), _UP)],
     _x(1, 4, 3, 3), "to 8x8"),
    ([(_x(3, 4, 4), _UP, _UP)], _x(1, 3, 3, 3), "expects"),
    ([(_x(2, 3, 4, 4), _UP, _UP)], _x(3, 3, 3), "kernel"),
    ([], _x(1, 3, 3, 3), "at least one part"),
], ids=["channels", "batch", "rows", "cols", "output-sizes-differ", "part-not-4d",
        "kernel-not-4d", "no-parts"])
def test_resized_conv2d_rejects_mismatched_shapes(parts, kernel, match):
    with pytest.raises(DimensionError, match=match):
        nd.resized_conv2d(parts, kernel, _x(kernel.data.shape[0]), padding=1)


@pytest.mark.parametrize("batch", [1, 3])
def test_permute_gradients(batch, rng):
    _check_weighted(lambda t: nd.permute(t, (0, 2, 3, 1)), rng.standard_normal((batch, 2, 3, 4)))
    with pytest.raises(DimensionError, match="permute"):
        nd.permute(nd.Tensor(np.zeros((2, 3))), (0, 0))


@pytest.mark.parametrize("batch", [1, 3])
def test_batched_resampling_gradients(batch, rng):
    _check_weighted(lambda t: nd.adaptive_avg_pool(t, 3, 2), rng.standard_normal((batch, 2, 7, 5)))
    _check_weighted(lambda t: nd.adaptive_avg_pool(t, 2, 2), rng.standard_normal((batch, 1, 4, 4)))
    _check_weighted(lambda t: nd.upsample_nearest(t, 3), rng.standard_normal((batch, 2, 2, 3)))
    _check_weighted(lambda t: nd.resize_bilinear(t, 5, 7), rng.standard_normal((batch, 2, 3, 4)))
    _check_weighted(lambda t: nd.box_filter(t, 3), rng.standard_normal((batch, 6, 7)))


@pytest.mark.parametrize("op", [
    lambda t: nd.adaptive_avg_pool(t, 3, 2),
    lambda t: nd.upsample_nearest(t, 2),
    lambda t: nd.resize_bilinear(t, 5, 3),
    lambda t: nd.box_filter(t, 3),
])
def test_batched_resampling_matches_per_map(op, rng):
    x = rng.standard_normal((3, 2, 7, 5))
    out = op(nd.Tensor(x)).data
    for b in range(3):
        assert np.abs(out[b] - op(nd.Tensor(x[b])).data).max() <= 1e-14


def test_box_filter_matches_window_means(rng):
    x = rng.standard_normal((2, 6, 7))
    out = nd.box_filter(nd.Tensor(x), 3).data
    assert out.shape == (2, 4, 5)
    for i in range(4):
        for j in range(5):
            assert np.allclose(out[:, i, j], x[:, i : i + 3, j : j + 3].mean(axis=(1, 2)),
                               atol=1e-14)
    with pytest.raises(ParameterError):
        nd.box_filter(nd.Tensor(x), 7)


# ---- fused ops against the compositions they replace ---------------------------
#
# A bias folded into its product, and attention as one op, keep the bits of
# the op chains the model ran before; those chains are the oracles here.


def _batch_matmul(a, b):
    """The product over the last two axes as its own op, as the model's
    attention ran it before ``nd.attention``."""
    return nd.tensor._make(np.matmul(a.data, b.data),
                           (a, lambda g: np.matmul(g, np.swapaxes(b.data, -1, -2))),
                           (b, lambda g: np.matmul(np.swapaxes(a.data, -1, -2), g)))


def _attention_chain(q, k, v, heads):
    b, t, d = q.data.shape
    dk = d // heads

    def split_heads(y, axes):
        return nd.permute(nd.reshape(y, (b, t, heads, dk)), axes)

    q = nd.scalar_mul(q, 1.0 / math.sqrt(dk))
    scores = _batch_matmul(split_heads(q, (0, 2, 1, 3)), split_heads(k, (0, 2, 3, 1)))
    att = nd.softmax(scores, axis=-1)
    ctx = _batch_matmul(att, split_heads(v, (0, 2, 1, 3)))
    return nd.reshape(nd.permute(ctx, (0, 2, 1, 3)), (b, t, d)), att.data


def _conv_case(op, shapes):
    """A convolution case: ``op``, and as its oracle the old composition,
    ``op`` with a zero bias followed by the per-channel bias added as its
    own op."""
    def composed(*args):
        *inputs, bias = args
        out = op(*inputs, nd.Tensor(np.zeros(bias.data.shape)))
        return nd.add(out, nd.reshape(bias, (bias.data.shape[0], 1, 1)))
    return op, composed, shapes


def _run_both(fused, composed, arrays, rng):
    """Output and every input gradient of sum(r * op(...)), for both ops."""
    results = []
    for op in (fused, composed):
        tensors = [nd.Tensor(a, requires_grad=True) for a in arrays]
        out = op(*tensors)
        if not results:
            r = rng.standard_normal(out.data.shape)
        nd.reduce_sum(nd.mul(out, nd.Tensor(r))).backward()
        results.append([out.data] + [t.grad for t in tensors])
    return results


_NEAR, _LIN = nd.nearest_matrix(4, 8), nd.bilinear_matrix(3, 8)

_MATMUL_CASE = (lambda a, w, b: nd.matmul(a, w, bias=b),
                lambda a, w, b: nd.add(nd.matmul(a, w), b))

_FUSED_BIAS_CASES = {
    "matmul": (*_MATMUL_CASE, [(37, 16), (16, 48), (48,)]),
    "matmul-one-row": (*_MATMUL_CASE, [(1, 5), (5, 3), (3,)]),
    "batch_conv2d": _conv_case(lambda x, k, b: nd.batch_conv2d(x, k, b, padding=1),
                               [(4, 3, 12, 12), (8, 3, 3, 3), (8,)]),
    "batch_conv2d-strided": _conv_case(
        lambda x, k, b: nd.batch_conv2d(x, k, b, stride=2, padding=1),
        [(3, 2, 9, 8), (5, 2, 3, 3), (5,)]),
    "batch_conv2d-one-row": _conv_case(lambda x, k, b: nd.batch_conv2d(x, k, b),
                                       [(2, 2, 3, 6), (3, 2, 3, 3), (3,)]),
    "resized_conv2d": _conv_case(
        lambda a, c, k, b: nd.resized_conv2d([(a, _NEAR, _NEAR), (c, _LIN, _LIN)], k, b,
                                             padding=1),
        [(3, 4, 4, 4), (3, 2, 3, 3), (6, 6, 3, 3), (6,)]),
}


@pytest.mark.parametrize("case", sorted(_FUSED_BIAS_CASES))
def test_folded_bias_equals_the_op_plus_add(case, rng):
    fused, composed, shapes = _FUSED_BIAS_CASES[case]
    arrays = [rng.standard_normal(shape) for shape in shapes]
    got, want = _run_both(fused, composed, arrays, rng)
    for name, a, b in zip(["output"] + [f"grad {i}" for i in range(len(arrays))], got, want):
        assert np.array_equal(a, b), (case, name)


@pytest.mark.parametrize("batch,tokens,width,heads", [
    (2, 5, 8, 1), (2, 5, 8, 2), (3, 16, 8, 4), (2, 7, 12, 2), (4, 64, 64, 4),
])
def test_attention_equals_the_reshape_permute_matmul_softmax_chain(batch, tokens, width, heads,
                                                                    rng):
    arrays = [rng.standard_normal((batch, tokens, width)) for _ in range(3)]
    weights = {}

    def fused(q, k, v):
        out, weights["fused"] = nd.attention(q, k, v, heads)
        return out

    def chain(q, k, v):
        out, weights["chain"] = _attention_chain(q, k, v, heads)
        return out

    got, want = _run_both(fused, chain, arrays, rng)
    assert weights["fused"].shape == (batch, heads, tokens, tokens)
    assert np.array_equal(weights["fused"], weights["chain"])
    for name, a, b in zip(["context", "grad q", "grad k", "grad v"], got, want):
        assert np.array_equal(a, b), name


def _attention_np(q, k, v, heads):
    """Per-head attention, one head's columns at a time."""
    dk = q.shape[-1] // heads
    out = np.empty_like(q)
    for h in range(heads):
        cols = slice(h * dk, (h + 1) * dk)
        s = q[..., cols] @ np.swapaxes(k[..., cols], -1, -2) / np.sqrt(dk)
        e = np.exp(s - s.max(axis=-1, keepdims=True))
        out[..., cols] = (e / e.sum(axis=-1, keepdims=True)) @ v[..., cols]
    return out


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_attention_gradcheck(heads, rng):
    arrays = [rng.standard_normal((2, 3, 4)) for _ in range(3)]
    r = rng.standard_normal((2, 3, 4))

    def build_loss(q, k, v):
        ts = [nd.Tensor(a, requires_grad=True) for a in (q, k, v)]
        out, _ = nd.attention(*ts, heads)
        return nd.reduce_sum(nd.mul(out, nd.Tensor(r))), ts

    assert_grads_close(lambda q, k, v: float((_attention_np(q, k, v, heads) * r).sum()),
                       build_loss, arrays, tol=1e-6)


def test_folded_bias_gradcheck(rng):
    # the convolutions' biases are gradchecked with their kernels above
    def build_loss(a, w, b):
        ts = [nd.Tensor(x, requires_grad=True) for x in (a, w, b)]
        out = nd.matmul(ts[0], ts[1], bias=ts[2])
        return nd.reduce_sum(nd.mul(out, out)), ts

    arrays = [rng.standard_normal((3, 4)), rng.standard_normal((4, 2)), rng.standard_normal(2)]
    assert_grads_close(lambda a, w, b: float(((a @ w + b) ** 2).sum()), build_loss, arrays,
                       tol=1e-6)


def test_fused_ops_reject_bad_shapes():
    x, k = _x(2, 3, 6, 6), _x(4, 3, 3, 3)
    with pytest.raises(DimensionError, match="bias"):
        nd.matmul(_x(3, 4), _x(4, 5), bias=_x(4))
    with pytest.raises(DimensionError, match="bias"):
        nd.matmul(_x(3, 4), _x(4, 5), bias=_x(1, 5))
    with pytest.raises(DimensionError, match="bias"):
        nd.batch_conv2d(x, k, _x(3))
    with pytest.raises(DimensionError, match="bias"):
        nd.resized_conv2d([(x, np.eye(6), np.eye(6))], k, _x(4, 1, 1))
    with pytest.raises(DimensionError, match="heads"):
        nd.attention(_x(2, 3, 6), _x(2, 3, 6), _x(2, 3, 6), 4)
    with pytest.raises(DimensionError, match="heads"):
        nd.attention(_x(2, 3, 6), _x(2, 3, 6), _x(2, 3, 6), 0)
    with pytest.raises(DimensionError, match="attention expects"):
        nd.attention(_x(2, 3, 6), _x(2, 4, 6), _x(2, 3, 6), 2)
    with pytest.raises(DimensionError, match="attention expects"):
        nd.attention(_x(3, 6), _x(3, 6), _x(3, 6), 2)


_FLAGS = st.lists(st.booleans(), min_size=2, max_size=2)


@settings(max_examples=25)
@given(batch=st.lists(st.integers(1, 3), min_size=0, max_size=2),
       squash_a=_FLAGS, squash_b=_FLAGS, drop=_FLAGS,
       dims=st.tuples(st.integers(1, 3), st.integers(1, 3)),
       op=st.sampled_from(["add", "sub", "mul", "div"]))
def test_broadcast_gradients_property(batch, squash_a, squash_b, drop, dims, op):
    """Elementwise gradients match finite differences when operands
    broadcast: each operand has its leading axes set to 1 (squash) or left
    out (drop), and b may also be one row."""
    m, k = dims

    def shape(squash, dropped, tail):
        lead = tuple(1 if sq else d for d, sq in zip(batch, squash))
        return (() if dropped else lead) + tail

    g = np.random.default_rng(len(batch) * 100 + m * 10 + k)
    a = g.standard_normal(shape(squash_a, drop[0], (m, k)))
    b = g.standard_normal(shape(squash_b, drop[1], (1 if squash_b[0] else m, k)))
    if op == "div":
        b = np.abs(b) + 1.0
    _check_weighted(getattr(nd, op), a, b, tol=1e-6)


# ---- upsample ---------------------------------------------------------------


def test_upsample_replicates():
    x = nd.Tensor([[[1.0, 2.0], [3.0, 4.0]]])
    out = nd.upsample_nearest(x, 2)
    expected = [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]]
    assert np.array_equal(out.data[0], expected)


def test_upsample_factor_one(rng):
    x = rng.standard_normal((2, 3, 3))
    out = nd.upsample_nearest(nd.Tensor(x), 1)
    assert np.array_equal(out.data, x)


def test_upsample_factor_zero_rejected():
    with pytest.raises(ParameterError):
        nd.upsample_nearest(nd.Tensor(np.zeros((1, 2, 2))), 0)


def test_upsample_gradient(rng):
    _check(lambda x: nd.upsample_nearest(x, 3), rng.standard_normal((2, 2, 3)), tol=1e-6)


@pytest.mark.parametrize("factor", [1, 2, 3, 4])
@pytest.mark.parametrize("shape", [(2, 3, 5), (3, 2, 4, 7)])
def test_upsample_gradient_is_the_reshape_sum_bitwise(factor, shape, rng):
    # the vjp sums strided views; it must give the bits of the block sum
    x = nd.Tensor(rng.standard_normal(shape), requires_grad=True)
    *lead, h, w = shape
    g = rng.standard_normal((*lead, h * factor, w * factor))
    nd.reduce_sum(nd.mul(nd.upsample_nearest(x, factor), nd.Tensor(g))).backward()
    assert np.array_equal(x.grad, g.reshape(*lead, h, factor, w, factor).sum(axis=(-3, -1)))


# ---- adaptive_avg_pool ------------------------------------------------------


def test_pool_constant_field():
    out = nd.adaptive_avg_pool(nd.Tensor(np.ones((1, 4, 4))), 2, 2)
    assert np.array_equal(out.data, np.ones((1, 2, 2)))


def test_pool_to_single_cell():
    out = nd.adaptive_avg_pool(nd.Tensor([[[1.0, 2.0], [3.0, 4.0]]]), 1, 1)
    assert out.data[0, 0, 0] == 2.5


def test_pool_matches_window_enumeration():
    x = np.arange(36, dtype=float).reshape(1, 6, 6)
    out = nd.adaptive_avg_pool(nd.Tensor(x), 3, 3)
    # independent oracle: explicit window enumeration
    expected = np.empty((1, 3, 3))
    for i in range(3):
        for j in range(3):
            r0, r1 = i * 6 // 3, (i + 1) * 6 // 3
            c0, c1 = j * 6 // 3, (j + 1) * 6 // 3
            expected[0, i, j] = x[0, r0:r1, c0:c1].mean()
    assert np.allclose(out.data, expected, atol=1e-14)


def test_pool_uneven_windows_match_enumeration(rng):
    x = rng.standard_normal((2, 7, 5))
    out = nd.adaptive_avg_pool(nd.Tensor(x), 3, 2)
    for i in range(3):
        for j in range(2):
            r0, r1 = i * 7 // 3, (i + 1) * 7 // 3
            c0, c1 = j * 5 // 2, (j + 1) * 5 // 2
            assert np.allclose(out.data[:, i, j], x[:, r0:r1, c0:c1].mean(axis=(1, 2)), atol=1e-14)


def test_pool_preserves_mean_when_divisible(rng):
    x = rng.standard_normal((3, 8, 8))
    out = nd.adaptive_avg_pool(nd.Tensor(x), 4, 2)
    assert abs(out.data.mean() - x.mean()) < 1e-14


def test_pool_zero_extent_rejected():
    with pytest.raises(ParameterError):
        nd.adaptive_avg_pool(nd.Tensor(np.zeros((1, 4, 4))), 0, 2)


def test_pool_gradient(rng):
    _check(lambda x: nd.adaptive_avg_pool(x, 2, 2), rng.standard_normal((1, 4, 4)), tol=1e-6)
    _check(lambda x: nd.adaptive_avg_pool(x, 3, 2), rng.standard_normal((2, 7, 5)), tol=1e-6)


# ---- resize_bilinear --------------------------------------------------------


def test_resize_constant_preserved():
    out = nd.resize_bilinear(nd.Tensor(np.full((1, 4, 4), 3.25)), 7, 9)
    assert np.allclose(out.data, 3.25, atol=1e-14)


def test_resize_identity(rng):
    x = rng.standard_normal((2, 5, 5))
    out = nd.resize_bilinear(nd.Tensor(x), 5, 5)
    assert np.allclose(out.data, x, atol=1e-14)


def test_resize_gradient(rng):
    _check(lambda x: nd.resize_bilinear(x, 5, 7), rng.standard_normal((2, 3, 4)), tol=1e-6)
    _check(lambda x: nd.resize_bilinear(x, 2, 2), rng.standard_normal((1, 5, 5)), tol=1e-6)


# ---- pointwise and reductions ----------------------------------------------


def test_relu_values():
    out = nd.relu(nd.Tensor([-1.0, 0.0, 2.0]))
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])


def test_layernorm_constant_vector_is_zero():
    n = 6
    out = nd.layernorm(
        nd.Tensor(np.full((2, n), 4.2)), nd.Tensor(np.ones(n)), nd.Tensor(np.zeros(n))
    )
    assert np.allclose(out.data, 0.0, atol=1e-12)


def test_pointwise_gradients(rng):
    x = rng.standard_normal((4, 6))
    r = rng.standard_normal((4, 6))

    def weighted(op):
        def inner(t):
            return nd.reduce_sum(nd.mul(op(t), nd.Tensor(r)))

        return inner

    for op in (nd.relu, nd.gelu, nd.sigmoid, nd.absolute):
        _check(weighted(op), x + 0.05, tol=1e-5)  # offset avoids relu/abs kinks


def _gelu_reference(x, g):
    # the tanh-approximation forward and vjp, each as one expression
    c = np.sqrt(2.0 / np.pi)
    x2 = x * x
    t = np.tanh(c * (x + 0.044715 * (x2 * x)))
    forward = 0.5 * x * (1.0 + t)
    vjp = g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * (c * (1.0 + 3 * 0.044715 * x2)))
    return forward, vjp


def _sigmoid_reference(x, g):
    s = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                 np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    return s, g * s * (1.0 - s)


def _softmax_reference(x, g):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)
    return s, (g - (g * s).sum(axis=-1, keepdims=True)) * s


def _forward_and_grad(op, x, g):
    xt = nd.Tensor(x, requires_grad=True)
    out = op(xt)
    nd.reduce_sum(nd.mul(out, nd.Tensor(g))).backward()
    return out.data, xt.grad


def test_gelu_matches_the_one_expression_form_bit_for_bit():
    draw = np.random.default_rng(11)
    x = draw.standard_normal((16, 64, 256)) * 3.0
    g = draw.standard_normal(x.shape)
    forward, vjp = _gelu_reference(x, g)
    out, grad = _forward_and_grad(nd.gelu, x, g)
    assert out.tobytes() == forward.tobytes()
    assert grad.tobytes() == vjp.tobytes()


@pytest.mark.parametrize("op,reference", [(nd.softmax, _softmax_reference),
                                          (nd.sigmoid, _sigmoid_reference),
                                          (nd.gelu, _gelu_reference)])
def test_activation_keeps_the_bits_of_its_expressions(rng, op, reference):
    # ops that keep one copy of each array must still compute the same bits
    x = rng.standard_normal((6, 7, 40)) * 4.0
    x.flat[rng.choice(x.size, 64, replace=False)] = rng.choice(
        [-1e100, -1e3, -745.0, -40.0, 40.0, 745.0, 1e3, 1e100], 64)
    g = rng.standard_normal(x.shape)
    forward, vjp = reference(x, g)
    out, grad = _forward_and_grad(op, x, g)
    assert np.array_equal(out, forward)
    assert np.array_equal(grad, vjp)


def test_layernorm_gradient(rng):
    x = rng.standard_normal((3, 5))
    scale = rng.standard_normal(5) + 1.0
    shift = rng.standard_normal(5)
    r = rng.standard_normal((3, 5))

    def op(t, s, b):
        return nd.reduce_sum(nd.mul(nd.layernorm(t, s, b), nd.Tensor(r)))

    _check(op, x, scale, shift, tol=1e-5)


def test_binary_op_gradients(rng):
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((3, 4)) + 2.0
    for op in (nd.add, nd.sub, nd.mul, nd.div):
        _check(op, a, b, tol=1e-5)


def test_broadcast_add_gradient(rng):
    _check(nd.add, rng.standard_normal((4, 3)), rng.standard_normal(3), tol=1e-6)


def test_reshape_transpose_concat_narrow_gradients(rng):
    _check(lambda t: nd.reshape(t, (6, 2)), rng.standard_normal((3, 4)), tol=1e-6)
    _check(nd.transpose, rng.standard_normal((3, 4)), tol=1e-6)
    _check(lambda a, b: nd.concat([a, b], axis=1),
           rng.standard_normal((2, 3)), rng.standard_normal((2, 2)), tol=1e-6)
    _check(lambda t: nd.narrow(t, 1, 1, 2), rng.standard_normal((3, 5)), tol=1e-6)


def test_gradient_shared_between_operands_is_not_corrupted(rng):
    # add() hands one gradient array to both operands; a later contribution
    # to one of them must not change what the other one still has to use
    r = rng.standard_normal(5)

    def op(t):
        b = nd.scalar_mul(t, 2.0)
        a = nd.sigmoid(t)
        c = nd.relu(a)
        return nd.add(nd.reduce_sum(nd.mul(nd.add(a, b), nd.Tensor(r))), nd.reduce_sum(c))

    _check(op, rng.standard_normal(5), tol=1e-6)


def test_reduce_mean_axis_gradient(rng):
    _check(lambda t: nd.reduce_mean(t, axis=0), rng.standard_normal((4, 3)), tol=1e-6)


# ---- the gradient rule: only inputs that track gradients get one ---------------

# multi-input ops, each with the shapes of its inputs
_MULTI_INPUT_OPS = {
    "add": (nd.add, [(3, 4), (4,)]),
    "sub": (nd.sub, [(3, 4), (3, 1)]),
    "mul": (nd.mul, [(3, 4), (4,)]),
    "div": (nd.div, [(3, 4), (3, 4)]),
    "matmul": (nd.matmul, [(3, 4), (4, 5)]),
    "matmul_bias": (nd.matmul, [(3, 4), (4, 5), (5,)]),
    "attention": (lambda q, k, v: nd.attention(q, k, v, 2)[0], [(2, 3, 4)] * 3),
    "concat": (lambda a, b, c: nd.concat([a, b, c], axis=1), [(2, 3), (2, 2), (2, 1)]),
    "layernorm": (nd.layernorm, [(3, 5), (5,), (5,)]),
    "conv2d": (lambda x, k: nd.conv2d(x, k, stride=1, padding=1), [(2, 6, 6), (3, 2, 3, 3)]),
    "batch_conv2d": (lambda x, k, b: nd.batch_conv2d(x, k, b, stride=2, padding=1),
                     [(2, 2, 7, 6), (3, 2, 3, 3), (3,)]),
    "resized_conv2d": (lambda a, b, k, bias: nd.resized_conv2d(
        [(a, _UP, _UP), (b, nd.bilinear_matrix(2, 8), nd.bilinear_matrix(2, 8))], k, bias,
        padding=1),
        [(2, 2, 4, 4), (2, 1, 2, 2), (3, 3, 3, 3), (3,)]),
}


def _weighted_grads(op, arrays, tracking, weights):
    """The inputs of ``op`` after one backward through sum(weights * op(...)),
    where only the inputs whose positions are in ``tracking`` track gradients."""
    tensors = [nd.Tensor(a, requires_grad=i in tracking) for i, a in enumerate(arrays)]
    nd.reduce_sum(nd.mul(op(*tensors), nd.Tensor(weights))).backward()
    return tensors


@pytest.mark.parametrize("name", sorted(_MULTI_INPUT_OPS))
def test_only_tracking_inputs_get_a_gradient(name, rng):
    op, shapes = _MULTI_INPUT_OPS[name]
    arrays = [rng.standard_normal(shape) + 2.0 for shape in shapes]
    weights = rng.standard_normal(op(*[nd.Tensor(a) for a in arrays]).data.shape)
    every = _weighted_grads(op, arrays, range(len(arrays)), weights)
    for i in range(len(arrays)):
        alone = _weighted_grads(op, arrays, {i}, weights)
        assert [t.grad is None for t in alone] == [j != i for j in range(len(arrays))]
        assert np.array_equal(alone[i].grad, every[i].grad), (name, i)


@pytest.mark.parametrize("op, expected", [
    (lambda x: nd.mul(x, x), lambda x, r: r * x + r * x),
    (lambda x: nd.add(x, x), lambda x, r: r + r),
    (lambda x: nd.concat([x, x]), lambda x, r: r[:3] + r[3:]),
    # three contributions: their sum depends on the order they are added in
    (lambda x: nd.concat([x, x, x]), lambda x, r: (r[:3] + r[3:6]) + r[6:]),
], ids=["mul", "add", "concat2", "concat3"])
def test_shared_operand_adds_its_contributions_in_input_order(op, expected, rng):
    x = rng.standard_normal((3, 4))
    r = rng.standard_normal(op(nd.Tensor(x)).data.shape)
    (t,) = _weighted_grads(op, [x], {0}, r)
    assert np.array_equal(t.grad, expected(x, r))


# ---- backward contract -------------------------------------------------------


def test_backward_simple_quadratic():
    x = nd.Tensor([1.0, 2.0], requires_grad=True)
    loss = nd.reduce_sum(nd.mul(x, x))
    loss.backward()
    assert np.allclose(x.grad, [2.0, 4.0], atol=1e-14)


def test_backward_unused_parameter_gets_no_grad():
    x = nd.Tensor([1.0, 2.0], requires_grad=True)
    p = nd.Tensor([3.0], requires_grad=True)
    loss = nd.reduce_sum(nd.mul(x, x))
    loss.backward()
    assert p.grad is None  # never touched by the graph


def test_backward_requires_scalar():
    x = nd.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ContractError):
        nd.mul(x, x).backward()


def test_backward_accumulates_without_reset():
    x = nd.Tensor([3.0], requires_grad=True)
    loss = nd.reduce_sum(nd.mul(x, x))
    loss.backward()
    first = x.grad.copy()
    loss.backward()
    assert np.allclose(x.grad, 2 * first, atol=1e-14)


@pytest.mark.parametrize("name", ["attention", "conv2d", "batch_conv2d", "resized_conv2d"])
def test_second_backward_of_a_shared_work_op_doubles_every_gradient(name, rng):
    # these ops share gradient work between inputs; none of it may outlive a backward
    op, shapes = _MULTI_INPUT_OPS[name]
    tensors = [nd.Tensor(rng.standard_normal(shape), requires_grad=True) for shape in shapes]
    out = op(*tensors)
    loss = nd.reduce_sum(nd.mul(out, nd.Tensor(rng.standard_normal(out.data.shape))))
    loss.backward()
    first = [t.grad.copy() for t in tensors]
    loss.backward()
    for t, g in zip(tensors, first):
        assert np.array_equal(t.grad, 2 * g), name


def test_backward_frees_each_gradient_once_its_inputs_have_it(rng):
    n = 2**20 // 8  # 1 MiB of float64 per array
    x = nd.Tensor(rng.standard_normal(n), requires_grad=True)
    c = nd.Tensor(rng.uniform(0.5, 1.5, n))
    tracemalloc.start()
    try:
        y = x
        for op in [lambda t: nd.mul(t, c), nd.sigmoid, lambda t: nd.add(t, c),
                   lambda t: nd.scalar_mul(t, 0.5), nd.gelu] * 2:
            y = op(y)
        loss = nd.reduce_sum(y)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a few arrays: the gradient in hand, the one being formed and gelu's
    # scratch; when the chain's gradients were kept to the end it was ten
    assert peak - held <= 5 * 2**20, f"{(peak - held) / 2**20:.1f} MiB above the forward"
    first = x.grad.copy()
    loss.backward()
    assert np.array_equal(x.grad, first + first)


def test_backward_is_linear(rng):
    x = rng.standard_normal(4)
    a, b = 2.5, -1.25

    def grad_of(fn):
        t = nd.Tensor(x, requires_grad=True)
        fn(t).backward()
        return t.grad.copy()

    l1 = lambda t: nd.reduce_sum(nd.mul(t, t))
    l2 = lambda t: nd.reduce_sum(nd.sigmoid(t))
    combo = lambda t: nd.add(nd.scalar_mul(l1(t), a), nd.scalar_mul(l2(t), b))
    assert np.allclose(grad_of(combo), a * grad_of(l1) + b * grad_of(l2), atol=1e-12)


def test_tape_orders_inputs_before_outputs():
    x = nd.Tensor([1.0, -2.0], requires_grad=True)
    y = nd.relu(x)
    z = nd.reduce_sum(nd.mul(y, y))
    tape = nd.Tape.trace(z)
    pos = {id(t): i for i, t in enumerate(tape.nodes)}
    for t in tape.nodes:
        for p in t._parents:
            assert pos[id(p)] < pos[id(t)]


def test_forward_stays_finite_on_finite_inputs(rng):
    x = nd.Tensor(rng.standard_normal((4, 4)) * 50, requires_grad=True)
    out = nd.softmax(nd.gelu(x), axis=-1)
    assert all(np.isfinite(t.data).all() for t in nd.Tape.trace(nd.reduce_sum(out)).nodes)
