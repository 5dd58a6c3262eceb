"""Reverse-mode automatic differentiation over dense numpy arrays.

A `Tensor` wraps an ndarray plus an optional gradient accumulator. Operations
build a graph through parent references and per-node backward closures; calling
`backward()` on a scalar root materializes a `ComputationTape` (the nodes in
topological order) and sweeps it once in reverse, accumulating gradients
additively across fan-out. The sweep keeps three rules:

- Only leaves keep gradients. A leaf is a tensor with no backward closure
  (parameters, user-made inputs); an interior node's gradient is dropped
  as soon as its closure has passed it on.
- A first gradient is adopted, not copied, when it is a writeable array of
  the tensor's dtype. So no closure may hand one buffer, or overlapping
  views of it, to two tensors.
- A second backward over the same graph adds to the leaves exactly once more.

Every forward op validates that its result is finite; NaN or Inf anywhere
raises `NonFiniteError` immediately, which the training harness turns into an
abort with diagnostics.

Inside `no_grad()` ops record nothing: results keep no parents and no
backward closure, so inference builds no graph and frees activations as soon
as they go out of scope.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

_grad_enabled = True


@contextmanager
def no_grad():
    """Ops run inside this block build no graph; also usable as a decorator."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class ShapeError(ValueError):
    """Operands have incompatible shapes for the requested op."""


class NonFiniteError(FloatingPointError):
    """A forward op produced NaN or Inf."""


def _as_array(x, dtype=None) -> np.ndarray:
    a = np.asarray(x, dtype=dtype)
    if a.dtype.kind not in "fiu":
        raise TypeError(f"unsupported dtype {a.dtype}")
    return a


def _check_finite(data: np.ndarray, op: str) -> None:
    if data.dtype.kind == "f" and not np.all(np.isfinite(data)):
        raise NonFiniteError(f"non-finite values produced by op '{op}'")


def unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """Dense n-dimensional array with an optional reverse-mode gradient slot."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = _as_array(data, dtype=dtype)
        _check_finite(self.data, "leaf")
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._op = "leaf"

    # -- graph construction -------------------------------------------------

    @classmethod
    def _from_op(
        cls,
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
        op: str,
    ) -> "Tensor":
        _check_finite(data, op)
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        out.requires_grad = _grad_enabled and any(p.requires_grad for p in parents)
        if out.requires_grad:
            out._parents = tuple(parents)
            out._backward = backward
        else:
            out._parents = ()
            out._backward = None
        out._op = op
        return out

    def _accum(self, grad: np.ndarray) -> None:
        if np.shape(grad) != self.data.shape:
            raise ShapeError(
                f"gradient of shape {np.shape(grad)} for a tensor of shape {self.data.shape} "
                f"(op '{self._op}')"
            )
        if self.grad is None:
            # adopted: no closure hands one buffer, or overlapping views of it, to two
            # tensors; a scalar, a read-only view or another dtype is cast-copied
            own = isinstance(grad, np.ndarray) and grad.flags.writeable and grad.dtype == self.data.dtype
            self.grad = grad if own else np.array(grad, dtype=self.data.dtype)
        else:
            self.grad += grad

    # -- basic properties ----------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return self.data.item()

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op}, requires_grad={self.requires_grad})"

    # -- backward ------------------------------------------------------------

    def backward(self, grad=None) -> "ComputationTape":
        """Run one reverse sweep from this node; returns the tape used.

        Only leaves (tensors with no backward closure) keep a gradient: each
        interior node's gradient is dropped as soon as its closure has passed
        it on. A first gradient is adopted, not copied; the caller's `grad` is
        copied, so it is never written. The graph stays, and a second
        backward over it adds its gradients to the leaves exactly once more.
        """
        if grad is None:
            if self.size != 1:
                raise ShapeError("backward() without explicit grad requires a scalar root")
            grad = np.ones_like(self.data)
        else:
            grad = np.array(grad, dtype=self.data.dtype)
            if grad.shape != self.shape:
                raise ShapeError("explicit backward grad must match root shape")
        tape = ComputationTape.trace(self)
        self._accum(grad)
        for node in reversed(tape.nodes):
            if node._backward is not None and node.grad is not None:
                g, node.grad = node.grad, None
                node._backward(g)
        return tape

    # -- operator overloads ----------------------------------------------------

    def _lift(self, other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(np.asarray(other, dtype=self.data.dtype))

    def __add__(self, other):
        return add(self, self._lift(other))

    def __radd__(self, other):
        return add(self._lift(other), self)

    def __mul__(self, other):
        return mul(self, self._lift(other))

    def __rmul__(self, other):
        return mul(self._lift(other), self)

    def __neg__(self):
        return mul(self, Tensor(np.asarray(-1.0, dtype=self.data.dtype)))

    def __sub__(self, other):
        return add(self, -self._lift(other))

    def __rsub__(self, other):
        return add(self._lift(other), -self)

    def __truediv__(self, scalar):
        if isinstance(scalar, Tensor):
            raise TypeError("tensor/tensor division is not supported; multiply by a reciprocal")
        return mul(self, Tensor(np.asarray(1.0 / scalar, dtype=self.data.dtype)))

    def __pow__(self, exponent):
        return power(self, exponent)

    def __matmul__(self, other):
        return matmul(self, self._lift(other))

    def __getitem__(self, idx):
        return getitem(self, idx)

    # -- convenience methods ---------------------------------------------------

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 or isinstance(shape[0], int) else shape[0])

    def transpose(self, *axes):
        return transpose(self, axes if axes else None)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)


class ComputationTape:
    """Nodes reachable from a root, in topological (parents-first) order."""

    __slots__ = ("nodes",)

    def __init__(self, nodes: list[Tensor]):
        self.nodes = nodes

    @classmethod
    def trace(cls, root: Tensor) -> "ComputationTape":
        # Iterative DFS; recursion would overflow on long decode chains.
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        return cls(order)

    def __len__(self):
        return len(self.nodes)


# -- primitive ops ------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def backward(g):
        ga = unbroadcast(g, a.shape) if a.requires_grad else None
        if ga is not None:
            a._accum(ga)
        if b.requires_grad:
            gb = unbroadcast(g, b.shape)
            # both may be `g` itself: copy, so a and b never own one buffer
            b._accum(gb.copy() if ga is not None and np.may_share_memory(ga, gb) else gb)

    return Tensor._from_op(data, (a, b), backward, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accum(unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accum(unbroadcast(g * a.data, b.shape))

    return Tensor._from_op(data, (a, b), backward, "mul")


def power(a: Tensor, exponent: float) -> Tensor:
    e = float(exponent)
    data = a.data**e

    def backward(g):
        if a.requires_grad:
            a._accum(g * e * a.data ** (e - 1.0))

    return Tensor._from_op(data, (a,), backward, "pow")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul requires tensors with at least 2 dimensions")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a._accum(unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        if b.requires_grad:
            b._accum(unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return Tensor._from_op(data, (a, b), backward, "matmul")


def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)

    def backward(g):
        if a.requires_grad:
            a._accum(g.reshape(a.shape))

    return Tensor._from_op(data, (a,), backward, "reshape")


def transpose(a: Tensor, axes=None) -> Tensor:
    data = np.transpose(a.data, axes)
    inv = None if axes is None else tuple(np.argsort(axes))

    def backward(g):
        if a.requires_grad:
            a._accum(np.transpose(g, inv))

    return Tensor._from_op(data, (a,), backward, "transpose")


def swapaxes(a: Tensor, ax1: int, ax2: int) -> Tensor:
    data = np.swapaxes(a.data, ax1, ax2)

    def backward(g):
        if a.requires_grad:
            a._accum(np.swapaxes(g, ax1, ax2))

    return Tensor._from_op(data, (a,), backward, "swapaxes")


def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if not a.requires_grad:
            return
        if axis is None:
            a._accum(np.broadcast_to(g, a.shape).copy() if np.ndim(g) else np.full(a.shape, g, dtype=a.dtype))
            return
        gg = g
        if not keepdims:
            gg = np.expand_dims(g, axis)
        a._accum(np.broadcast_to(gg, a.shape).copy())

    data = np.asarray(data)
    return Tensor._from_op(data, (a,), backward, "sum")


def tmean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    if axis is None:
        n = a.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        n = 1
        for ax in axes:
            n *= a.shape[ax]
    s = tsum(a, axis=axis, keepdims=keepdims)
    return mul(s, Tensor(np.asarray(1.0 / n, dtype=a.data.dtype)))


def getitem(a: Tensor, idx) -> Tensor:
    data = a.data[idx]
    fancy = isinstance(idx, (np.ndarray, list)) or (
        isinstance(idx, tuple) and any(isinstance(i, (np.ndarray, list)) for i in idx)
    )

    def backward(g):
        if not a.requires_grad:
            return
        ga = np.zeros_like(a.data)
        if fancy:
            np.add.at(ga, idx, g)
        else:
            ga[idx] += g
        a._accum(ga)

    data = np.asarray(data)
    return Tensor._from_op(data, (a,), backward, "getitem")


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    ts = list(tensors)
    data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                t._accum(g[tuple(sl)])

    return Tensor._from_op(data, ts, backward, "concat")


def broadcast_to(a: Tensor, shape) -> Tensor:
    data = np.broadcast_to(a.data, shape).copy()

    def backward(g):
        if a.requires_grad:
            a._accum(unbroadcast(g, a.shape))

    return Tensor._from_op(data, (a,), backward, "broadcast_to")


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)

    def backward(g):
        if a.requires_grad:
            a._accum(g * data)

    return Tensor._from_op(data, (a,), backward, "exp")


def log(a: Tensor) -> Tensor:
    data = np.log(a.data)

    def backward(g):
        if a.requires_grad:
            a._accum(g / a.data)

    return Tensor._from_op(data, (a,), backward, "log")


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    data = np.clip(a.data, lo, hi)
    mask = (a.data > lo) & (a.data < hi)

    def backward(g):
        if a.requires_grad:
            a._accum(g * mask)

    return Tensor._from_op(data, (a,), backward, "clip")


def maximum(a: Tensor, b: Tensor) -> Tensor:
    data = np.maximum(a.data, b.data)
    amask = a.data >= b.data

    def backward(g):
        if a.requires_grad:
            a._accum(unbroadcast(g * amask, a.shape))
        if b.requires_grad:
            b._accum(unbroadcast(g * (~amask), b.shape))

    return Tensor._from_op(data, (a, b), backward, "maximum")

