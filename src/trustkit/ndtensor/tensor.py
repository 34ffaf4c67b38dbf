"""Dense f64 tensors with reverse-mode automatic differentiation.

Graphs are built define-by-run: every operation whose inputs carry
``requires_grad`` stores a vector-Jacobian closure on its output. A
``Tape`` is reconstructed from the output tensor at backward time, in
exact creation order, and replayed in reverse.
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
                t._vjp(t.grad)
        # gradients persist (and accumulate across calls) on graph leaves only
        for t in self.nodes:
            if t._vjp is not None:
                t.grad = None


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every tensor the scalar ``loss`` depends on.

    Repeated calls accumulate; use ``zero_grads`` between steps.
    """
    Tape.trace(loss).backward(loss)


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None


# ---- op plumbing -----------------------------------------------------------


def _make(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
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
    data = a.data + b.data

    def vjp(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.data.shape))

    return _make(data, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data

    def vjp(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g, b.data.shape))

    return _make(data, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def vjp(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(data, (a, b), vjp)


def div(a: Tensor, b: Tensor) -> Tensor:
    data = a.data / b.data

    def vjp(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _make(data, (a, b), vjp)


def scalar_mul(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def vjp(g):
        if a.requires_grad:
            _accumulate(a, g * c)

    return _make(a.data * c, (a,), vjp)


def scalar_add(a: Tensor, c: float) -> Tensor:
    def vjp(g):
        if a.requires_grad:
            _accumulate(a, g)

    return _make(a.data + float(c), (a,), vjp)


def absolute(a: Tensor) -> Tensor:
    sign = np.sign(a.data)

    def vjp(g):
        if a.requires_grad:
            _accumulate(a, g * sign)

    return _make(np.abs(a.data), (a,), vjp)


# ---- linear algebra ---------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul shapes incompatible: {a.data.shape} x {b.data.shape}")
    data = a.data @ b.data

    def vjp(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    return _make(data, (a, b), vjp)


def batch_matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes, broadcasting the leading ones."""
    if a.data.ndim < 2 or b.data.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(f"batch_matmul shapes incompatible: {a.data.shape} x {b.data.shape}")
    try:
        np.broadcast_shapes(a.data.shape[:-2], b.data.shape[:-2])
    except ValueError:
        raise DimensionError(
            f"batch_matmul batch axes incompatible: {a.data.shape} x {b.data.shape}"
        ) from None
    data = np.matmul(a.data, b.data)

    def vjp(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape))

    return _make(data, (a, b), vjp)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    data = a.data.reshape(shape)

    def vjp(g):
        if a.requires_grad:
            _accumulate(a, g.reshape(a.data.shape))

    return _make(data, (a,), vjp)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise DimensionError(f"transpose expects a matrix, got shape {a.data.shape}")

    def vjp(g):
        if a.requires_grad:
            _accumulate(a, g.T)

    return _make(a.data.T.copy(), (a,), vjp)


def permute(a: Tensor, axes: Sequence[int]) -> Tensor:
    """Reorder the axes of ``a``; the result is contiguous."""
    axes = tuple(axes)
    if sorted(axes) != list(range(a.data.ndim)):
        raise DimensionError(f"permute axes {axes} do not reorder shape {a.data.shape}")
    inverse = tuple(np.argsort(axes))

    def vjp(g):
        if a.requires_grad:
            _accumulate(a, g.transpose(inverse))

    return _make(np.ascontiguousarray(a.data.transpose(axes)), (a,), vjp)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                _accumulate(t, g[tuple(idx)])

    return _make(data, tuple(tensors), vjp)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def vjp(g):
        if a.requires_grad:
            buf = np.zeros_like(a.data)
            buf[idx] = g
            _accumulate(a, buf)

    return _make(a.data[idx].copy(), (a,), vjp)


# ---- reductions -------------------------------------------------------------


def reduce_sum(a: Tensor, axis: int | None = None) -> Tensor:
    data = a.data.sum(axis=axis)

    def vjp(g):
        if not a.requires_grad:
            return
        if axis is None:
            _accumulate(a, np.broadcast_to(g, a.data.shape).copy())
        else:
            _accumulate(a, np.broadcast_to(np.expand_dims(g, axis), a.data.shape).copy())

    return _make(data, (a,), vjp)


def reduce_mean(a: Tensor, axis: int | None = None) -> Tensor:
    count = a.data.size if axis is None else a.data.shape[axis]
    return scalar_mul(reduce_sum(a, axis=axis), 1.0 / count)


# ---- nonlinearities ---------------------------------------------------------


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def vjp(g):
        if a.requires_grad:
            _accumulate(a, g * mask)

    # np.maximum, not np.where: keeps NaNs visible to the training guard
    return _make(np.maximum(a.data, 0.0), (a,), vjp)


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu(a: Tensor) -> Tensor:
    # tanh approximation 0.5 x (1 + t), t = tanh(c (x + 0.044715 x^3)), with
    # the same operations in the same order as that expression, but in place;
    # the backward keeps t and 1 + t and forms x^2 again
    x = a.data
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    one_plus_t = t + 1.0
    data = x * 0.5
    data *= one_plus_t

    def vjp(g):
        if a.requires_grad:
            # g (0.5 (1 + t) + 0.5 x (1 - t^2) c (1 + 3 * 0.044715 x^2))
            dinner = x * x
            dinner *= 3 * 0.044715
            dinner += 1.0
            dinner *= _GELU_C
            scratch = t * t
            np.subtract(1.0, scratch, out=scratch)
            grad = x * 0.5
            grad *= scratch
            grad *= dinner
            np.multiply(one_plus_t, 0.5, out=scratch)
            grad += scratch
            grad *= g
            _accumulate(a, grad)

    return _make(data, (a,), vjp)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    s = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def vjp(g):
        if a.requires_grad:
            _accumulate(a, g * s * (1.0 - s))

    return _make(s.copy(), (a,), vjp)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        if a.requires_grad:
            _accumulate(a, (g - (g * s).sum(axis=axis, keepdims=True)) * s)

    return _make(s.copy(), (a,), vjp)


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
    data = scale.data * xhat + shift.data

    def vjp(g):
        if scale.requires_grad:
            _accumulate(scale, (g * xhat).reshape(-1, n).sum(axis=0))
        if shift.requires_grad:
            _accumulate(shift, g.reshape(-1, n).sum(axis=0))
        if a.requires_grad:
            gx = g * scale.data
            ga = inv_std * (
                gx
                - gx.mean(axis=-1, keepdims=True)
                - xhat * (gx * xhat).mean(axis=-1, keepdims=True)
            )
            _accumulate(a, ga)

    return _make(data, (a, scale, shift), vjp)
