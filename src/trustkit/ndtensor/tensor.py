"""Dense f64 tensors with reverse-mode automatic differentiation.

Graphs are built define-by-run: every operation whose inputs carry
``requires_grad`` stores a vector-Jacobian closure on its output. A
``Tape`` is reconstructed from the output tensor at backward time, in
exact creation order, and replayed in reverse.

Backward frees as it goes: an intermediate's gradient lives only until its
inputs have received theirs. Only graph leaves keep ``grad`` afterwards,
and the vector-Jacobian closures stay, so a second backward over the same
graph accumulates into the leaves again.

An op states only its local derivatives: one gradient function per input,
mapping the output gradient to that input's gradient. ``_make`` applies
the one rule for all ops: an input's function runs only when that input
tracks gradients, and its result is accumulated into it, in input order.
Work that several inputs' gradients share is an op's ``prepare``: ``_make``
applies it once per backward to the output gradient, and every gradient
function reads its result in place of the output gradient.

An op keeps only what its gradient functions read. The graph holds every
op's output for as long as a consumer lists it as an input, so an array
that only feeds the next op's arithmetic is not made a node of its own:
a bias folds into the op that makes the product (``matmul``, and the
convolutions of ``spatial``), and ``attention`` keeps its weights but not
the scores they come from.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Sequence

import numpy as np

from ..errors import ContractError, DimensionError

_serial = itertools.count()


class Tensor:
    """A dense float64 array, optionally participating in gradient tracking."""

    __slots__ = ("data", "requires_grad", "grad", "name", "_parents", "_vjp", "_serial")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], None] | None = None
        self._serial = next(_serial)

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag}, requires_grad={self.requires_grad})"

    def backward(self) -> None:
        backward(self)


class Tape:
    """Creation-ordered record of the operations reachable from one output.

    Inputs always precede their consumers (creation order is topological
    for define-by-run graphs); ``backward`` walks the list strictly in
    reverse.
    """

    def __init__(self, nodes: list[Tensor]):
        self.nodes = nodes

    @classmethod
    def trace(cls, root: Tensor) -> "Tape":
        seen: set[int] = set()
        nodes: list[Tensor] = []
        stack = [root]
        while stack:
            t = stack.pop()
            if id(t) in seen:
                continue
            seen.add(id(t))
            nodes.append(t)
            stack.extend(t._parents)
        nodes.sort(key=lambda t: t._serial)
        return cls(nodes)

    def backward(self, root: Tensor) -> None:
        if root.data.size != 1:
            raise ContractError(
                f"backward requires a scalar loss, got shape {root.data.shape}"
            )
        _accumulate(root, np.ones_like(root.data))
        for t in reversed(self.nodes):
            if t._vjp is not None and t.grad is not None:
                # an intermediate's gradient lives only until its inputs have
                # theirs; leaves (no _vjp) keep and accumulate theirs
                g, t.grad = t.grad, None
                t._vjp(g)


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every tensor the scalar ``loss`` depends on.

    Repeated calls accumulate; use ``zero_grads`` between steps.
    """
    Tape.trace(loss).backward(loss)


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None


# ---- op plumbing -----------------------------------------------------------


def _make(data: np.ndarray, *edges: tuple[Tensor, Callable],
          prepare: Callable | None = None) -> Tensor:
    """The result of an op, and the one place the gradient rule is applied.

    Each edge pairs an input with its gradient function, which maps the
    output gradient to that input's gradient. The output tracks gradients
    when any input does; its backward runs an edge's function only for an
    input that tracks gradients, and accumulates the result into it, in
    input order (so ``mul(x, x)`` adds its two contributions as listed).
    With ``prepare``, each backward applies it once to the output gradient,
    and every edge's function receives its result instead.
    """
    out = Tensor(data)
    if any(t.requires_grad for t, _ in edges):
        out.requires_grad = True
        out._parents = tuple(t for t, _ in edges)

        def vjp(g):
            if prepare is not None:
                g = prepare(g)
            for t, grad in edges:
                if t.requires_grad:
                    _accumulate(t, grad(g))

        out._vjp = vjp
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    # gradients are never updated in place, so an intermediate may keep the
    # array (or a view of it) that its consumer passed; leaves get a copy
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64) if t._vjp is None else g
    else:
        t.grad = t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    keep = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if keep:
        g = g.sum(axis=keep, keepdims=True)
    return g.reshape(shape)


# ---- elementwise arithmetic -------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    return _make(a.data + b.data,
                 (a, lambda g: _unbroadcast(g, a.data.shape)),
                 (b, lambda g: _unbroadcast(g, b.data.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _make(a.data - b.data,
                 (a, lambda g: _unbroadcast(g, a.data.shape)),
                 (b, lambda g: _unbroadcast(-g, b.data.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _make(a.data * b.data,
                 (a, lambda g: _unbroadcast(g * b.data, a.data.shape)),
                 (b, lambda g: _unbroadcast(g * a.data, b.data.shape)))


def div(a: Tensor, b: Tensor) -> Tensor:
    return _make(a.data / b.data,
                 (a, lambda g: _unbroadcast(g / b.data, a.data.shape)),
                 (b, lambda g: _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)))


def scalar_mul(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _make(a.data * c, (a, lambda g: g * c))


def scalar_add(a: Tensor, c: float) -> Tensor:
    return _make(a.data + float(c), (a, lambda g: g))


def absolute(a: Tensor) -> Tensor:
    sign = np.sign(a.data)
    return _make(np.abs(a.data), (a, lambda g: g * sign))


# ---- linear algebra ---------------------------------------------------------


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """a @ b for matrices, plus a (d,) ``bias`` added to every row when given."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul shapes incompatible: {a.data.shape} x {b.data.shape}")
    data = a.data @ b.data
    edges = [(a, lambda g: g @ b.data.T), (b, lambda g: a.data.T @ g)]
    if bias is not None:
        if bias.data.shape != data.shape[1:]:
            raise DimensionError(
                f"matmul bias must have shape {data.shape[1:]}, got {bias.data.shape}"
            )
        data += bias.data
        edges.append((bias, lambda g: g.sum(axis=0)))
    return _make(data, *edges)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> tuple[Tensor, np.ndarray]:
    """Multi-head scaled dot-product attention of (B, T, D) queries, keys and
    values: softmax(Q_h K_h^T / sqrt(d_k)) V_h per head h, over the head's
    d_k = D / heads columns, with the heads' results side by side again.

    Returns the (B, T, D) context and the (B, heads, T, T) attention weights.
    Heads are strided views of the (B, T, D) arrays; keys alone are copied,
    to (B, heads, d_k, T), so that every GEMM sees the operand layout, and
    rounds the way, that separate reshape, permute, matmul and softmax ops
    give it. Beyond its inputs the backward keeps the key copy and the
    weights, never the scores or the scaled queries, which the key gradient
    forms again.
    """
    if q.data.ndim != 3 or k.data.shape != q.data.shape or v.data.shape != q.data.shape:
        raise DimensionError(
            f"attention expects equal (B,T,D) shapes, got {q.data.shape}, {k.data.shape} "
            f"and {v.data.shape}"
        )
    b, t, d = q.data.shape
    if heads < 1 or d % heads:
        raise DimensionError(f"attention width {d} does not split into {heads} heads")
    dk = d // heads

    def split(a):  # (B, T, D) -> (B, H, T, d_k), a view
        return a.reshape(b, t, heads, dk).transpose(0, 2, 1, 3)

    def merge(a):  # (B, H, T, d_k) -> (B, T, D), a copy
        return a.transpose(0, 2, 1, 3).reshape(b, t, d)

    # scores are (Q K^T) / sqrt(d_k); folding the scale into Q is equivalent
    scale = float(1.0 / np.sqrt(dk))
    kt = np.ascontiguousarray(np.swapaxes(split(k.data), -1, -2))  # (B, H, d_k, T)
    weights = np.matmul(split(q.data * scale), kt)
    _softmax(weights, -1, out=weights)
    ctx = np.empty((b, t, d))
    np.matmul(weights, split(v.data), out=split(ctx))

    def prepare(g):  # the output gradient and the scores' gradient
        g_weights = np.matmul(split(g), np.swapaxes(split(v.data), -1, -2))
        return g, _softmax_grad(g_weights, weights, -1)

    def grad_q(gs):
        gq = merge(np.matmul(gs[1], np.swapaxes(kt, -1, -2)))
        gq *= scale
        return gq

    def grad_k(gs):
        gk = np.matmul(np.swapaxes(split(q.data * scale), -1, -2), gs[1])  # (B, H, d_k, T)
        return gk.transpose(0, 3, 1, 2).reshape(b, t, d)

    def grad_v(gs):
        return merge(np.matmul(np.swapaxes(weights, -1, -2), split(gs[0])))

    return _make(ctx, (q, grad_q), (k, grad_k), (v, grad_v), prepare=prepare), weights


def reshape(a: Tensor, shape) -> Tensor:
    return _make(a.data.reshape(tuple(shape)), (a, lambda g: g.reshape(a.data.shape)))


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise DimensionError(f"transpose expects a matrix, got shape {a.data.shape}")
    return _make(a.data.T.copy(), (a, lambda g: g.T))


def permute(a: Tensor, axes: Sequence[int]) -> Tensor:
    """Reorder the axes of ``a``; the result is contiguous."""
    axes = tuple(axes)
    if sorted(axes) != list(range(a.data.ndim)):
        raise DimensionError(f"permute axes {axes} do not reorder shape {a.data.shape}")
    inverse = tuple(np.argsort(axes))
    return _make(np.ascontiguousarray(a.data.transpose(axes)), (a, lambda g: g.transpose(inverse)))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])

    def piece(lo, hi):
        idx = [slice(None)] * data.ndim
        idx[axis] = slice(lo, hi)
        idx = tuple(idx)
        return lambda g: g[idx]

    return _make(data, *((t, piece(lo, hi)) for t, lo, hi in zip(tensors, offsets, offsets[1:])))


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def grad(g):
        buf = np.zeros_like(a.data)
        buf[idx] = g
        return buf

    return _make(a.data[idx].copy(), (a, grad))


# ---- reductions -------------------------------------------------------------


def reduce_sum(a: Tensor, axis: int | None = None) -> Tensor:
    def grad(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, a.data.shape).copy()

    return _make(a.data.sum(axis=axis), (a, grad))


def reduce_mean(a: Tensor, axis: int | None = None) -> Tensor:
    count = a.data.size if axis is None else a.data.shape[axis]
    return scalar_mul(reduce_sum(a, axis=axis), 1.0 / count)


# ---- nonlinearities ---------------------------------------------------------


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    # np.maximum, not np.where: keeps NaNs visible to the training guard
    return _make(np.maximum(a.data, 0.0), (a, lambda g: g * mask))


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu(a: Tensor) -> Tensor:
    # tanh approximation 0.5 x (1 + t), t = tanh(c (x + 0.044715 x^3)), with
    # the same operations in the same order as that expression, but in place;
    # the backward keeps only t, and forms 1 + t and x^2 again
    x = a.data
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    data = x * 0.5
    data *= t + 1.0

    def grad(g):
        # g (0.5 (1 + t) + 0.5 x (1 - t^2) c (1 + 3 * 0.044715 x^2))
        dinner = x * x
        dinner *= 3 * 0.044715
        dinner += 1.0
        dinner *= _GELU_C
        scratch = t * t
        np.subtract(1.0, scratch, out=scratch)
        out = x * 0.5
        out *= scratch
        out *= dinner
        np.add(t, 1.0, out=scratch)
        scratch *= 0.5
        out += scratch
        out *= g
        return out

    return _make(data, (a, grad))


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    s = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    return _make(s, (a, lambda g: g * s * (1.0 - s)))


def _softmax(x: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """exp(x - max) / sum along ``axis``, written to ``out`` (which may be x)."""
    out = np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


def _softmax_grad(g: np.ndarray, s: np.ndarray, axis: int) -> np.ndarray:
    """The input gradient of a softmax with output ``s`` along ``axis``."""
    out = g - (g * s).sum(axis=axis, keepdims=True)
    out *= s
    return out


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    s = _softmax(a.data, axis)
    return _make(s, (a, lambda g: _softmax_grad(g, s, axis)))


def layernorm(a: Tensor, scale: Tensor, shift: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then apply learnable scale and shift."""
    n = a.data.shape[-1]
    if scale.data.shape != (n,) or shift.data.shape != (n,):
        raise DimensionError(
            f"layernorm scale/shift must have shape ({n},), got {scale.data.shape} and {shift.data.shape}"
        )
    mu = a.data.mean(axis=-1, keepdims=True)
    centered = a.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std

    def grad_a(g):
        gx = g * scale.data
        return inv_std * (
            gx
            - gx.mean(axis=-1, keepdims=True)
            - xhat * (gx * xhat).mean(axis=-1, keepdims=True)
        )

    return _make(scale.data * xhat + shift.data,
                 (a, grad_a),
                 (scale, lambda g: (g * xhat).reshape(-1, n).sum(axis=0)),
                 (shift, lambda g: g.reshape(-1, n).sum(axis=0)))
