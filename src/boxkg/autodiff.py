"""Minimal reverse-mode automatic differentiation over numpy arrays.

Implements exactly the operations the scoring and loss graphs need; the
point-to-box score itself is fused in ``model`` (``box_score_rows``, and
``translated_box_score_rows`` for binary facts); ``matmul`` is a whole
dense layer.  All data and gradients are float64.  Rectifiers propagate the
subgradient of the branch taken in the forward pass, with zero at the kink.
Backward closures skip work for parents that do not require gradients, and
hold arrays, never their own output tensor, so no graph forms a cycle.
"""

from __future__ import annotations

import math

import numpy as np


def sigmoid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    t = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + t), t / (1.0 + t))


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the parent's shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def _accumulate(self, grad: np.ndarray) -> None:
        if grad.shape != self.data.shape:
            grad = _unbroadcast(grad, self.data.shape)
        self.grad = grad if self.grad is None else self.grad + grad

    def backward(self) -> None:
        """Backpropagate from this node, seeded with ones; only leaves keep a gradient."""
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)
                node.grad = None

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _node(data, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(g)

    return _node(a.data + b.data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(-g)

    return _node(a.data - b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * b.data)
        if b.requires_grad:
            b._accumulate(g * a.data)

    return _node(a.data * b.data, (a, b), backward)


def matmul(a, b, bias=None, relu: bool = False) -> Tensor:
    """``a @ b``, plus ``bias``, then a rectifier if ``relu``: values and
    gradients of ``matmul``, ``add`` and ``relu`` chained, but the node keeps
    only its output, worked in place; the rectifier's mask is ``out > 0``.
    With ``relu`` the backward writes the masked gradient over the output,
    which every consumer has used by then, so it runs once."""
    a, b = as_tensor(a), as_tensor(b)
    bias = None if bias is None else as_tensor(bias)
    out = a.data @ b.data
    if bias is not None:
        out += bias.data
    if relu:
        np.copyto(out, 0.0, where=np.logical_not(out > 0))

    def backward(g):
        if relu:
            g = np.multiply(g, out > 0, out=out)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g)
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    parents = (a, b) if bias is None else (a, b, bias)
    return _node(out, parents, once(backward) if relu else backward)


def once(backward):
    """``backward`` that raises when called again, for nodes that consume what they saved."""
    spent = False

    def run(g):
        nonlocal spent
        if spent:
            raise RuntimeError("graph already backpropagated")
        spent = True
        backward(g)

    return run


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0

    def backward(g):
        a._accumulate(g * mask)

    return _node(np.where(mask, a.data, 0.0), (a,), backward)


def exp(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def backward(g):
        a._accumulate(g * out_data)

    return _node(out_data, (a,), backward)


def softplus(a) -> Tensor:
    """log(1 + exp(x)), numerically stable; derivative is the sigmoid."""
    a = as_tensor(a)

    def backward(g):
        a._accumulate(g * sigmoid(a.data))

    return _node(np.logaddexp(0.0, a.data), (a,), backward)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.data.shape))

    return _node(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


# Largest target table that scatters by one-hot matmul; see ``scatter_rows``.
SCATTER_MATMUL_ROWS = 32


def scatter_rows(index: np.ndarray, g: np.ndarray, n_rows: int) -> np.ndarray:
    """Sum the rows of ``g`` into an (n_rows, ...) array at rows ``index``.

    Tables of at most ``SCATTER_MATMUL_ROWS`` rows use a one-hot matmul,
    larger ones one flat ``bincount`` over ``index * width + column``.  On
    one core of a Xeon the crossover lies at 32-64 rows for 256-51,200
    gathered rows of width 32-128: BLAS wins when a few rows collect many
    (the box banks), while a matmul onto a large table mostly multiplies
    zeros.  The rule reads the shapes alone, so a given graph always sums in
    the same order.
    """
    index = np.asarray(index, dtype=np.intp)
    width = math.prod(g.shape[1:])
    flat = g.reshape(len(index), width)
    if n_rows <= SCATTER_MATMUL_ROWS:
        indicator = np.zeros((n_rows, len(index)))
        indicator[index, np.arange(len(index))] = 1.0
        out = indicator @ flat
    else:
        cells = (index[:, None] * width + np.arange(width)).ravel()
        out = np.bincount(cells, weights=flat.ravel(), minlength=n_rows * width)
    return out.reshape((n_rows,) + g.shape[1:])


def take_rows(a, index: np.ndarray) -> Tensor:
    """Gather rows along axis 0; the backward is ``scatter_rows``.

    That is a one-hot matmul onto tables of at most ``SCATTER_MATMUL_ROWS``
    rows (box banks, small tables) and a bincount onto larger entity tables.
    """
    a = as_tensor(a)
    index = np.asarray(index, dtype=np.intp)

    def backward(g):
        a._accumulate(scatter_rows(index, g, a.data.shape[0]))

    return _node(a.data[index], (a,), backward)


def leaves(arrays: dict[str, np.ndarray]) -> dict[str, Tensor]:
    """One gradient-tracking tensor per named array, for one forward pass."""
    return {name: Tensor(arr, requires_grad=True) for name, arr in arrays.items()}


def gradients(tensors: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Each tensor's gradient after ``backward``; zeros where the loss did not reach."""
    return {
        name: t.grad if t.grad is not None else np.zeros_like(t.data)
        for name, t in tensors.items()
    }


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    old_shape = a.data.shape

    def backward(g):
        a._accumulate(g.reshape(old_shape))

    return _node(a.data.reshape(shape), (a,), backward)


def concat(parts, axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        for part, piece in zip(parts, np.split(g, splits, axis=axis)):
            if part.requires_grad:
                part._accumulate(piece)

    return _node(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), backward)


def logsumexp(a, axis: int, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    peak = np.max(a.data, axis=axis, keepdims=True)
    out_keep = np.log(np.sum(np.exp(a.data - peak), axis=axis, keepdims=True)) + peak
    soft = np.exp(a.data - out_keep)

    def backward(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(g * soft)

    return _node(out_keep if keepdims else np.squeeze(out_keep, axis=axis), (a,), backward)
