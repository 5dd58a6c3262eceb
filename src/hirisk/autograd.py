"""Reverse-mode automatic differentiation over dense numpy arrays.

A `Tensor` wraps an ndarray. An op output that requires grad also gets a
`Node`: its gradient slot, its parents' nodes and its backward closure, with
the output's shape and dtype but not its data. A leaf (a parameter or a
user-made input) is its own node. Calling `backward()` on a scalar root
materializes a `ComputationTape` (the nodes in topological order) and sweeps
it once in reverse, accumulating gradients additively across fan-out. The
graph and the sweep keep five rules:

- The graph holds nodes, not op outputs. A closure captures its parents'
  nodes plus exactly the arrays it reads, saved at forward time, and never a
  parent `Tensor`; an output that no closure reads is freed as soon as the
  forward code drops it.
- Only leaves keep gradients. An interior node's gradient is dropped as soon
  as its closure has passed it on.
- A first gradient is adopted, not copied, when it is a writeable array of
  the node's dtype. So no closure may hand one buffer, or overlapping views
  of it, to two nodes.
- A second backward over the same graph adds to the leaves exactly once more.
- Block graphs are swept apart. `join_blocks` sums the losses of blocks
  whose graphs share leaves but no interior node; its backward sweeps each
  block's graph on a `hirisk.workers` thread, from an order of its own
  rather than through `ComputationTape.trace`. There a leaf's gradient goes
  to the block's sink, not to the leaf; after the last block the sinks are
  added to the leaves in block order, block 0's buffers adopted. So no two
  threads write one buffer, and the sum does not depend on the workers.

Every forward op validates that its result is finite; NaN or Inf anywhere
raises `NonFiniteError` immediately, which the training harness turns into an
abort with diagnostics.

Inside `no_grad()` ops record nothing: results get no node, so inference
builds no graph and frees activations as soon as they go out of scope.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

from .workers import grad_sink, map_sinks

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
    if data.dtype.kind == "f" and not np.isfinite(data).all():
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


class Node:
    """The graph's record of one op output that requires grad, without its data."""

    __slots__ = ("grad", "shape", "dtype", "_parents", "_backward", "_op")
    requires_grad = True

    def __init__(self, shape: tuple, dtype, parents: tuple, backward: Callable[[np.ndarray], None], op: str):
        self.grad: np.ndarray | None = None
        self.shape = shape
        self.dtype = dtype
        self._parents = parents
        self._backward = backward
        self._op = op

    def _accum(self, grad: np.ndarray) -> None:
        if np.shape(grad) != self.shape:
            raise ShapeError(
                f"gradient of shape {np.shape(grad)} for a tensor of shape {self.shape} "
                f"(op '{self._op}')"
            )
        if self.grad is None:
            # adopted: no closure hands one buffer, or overlapping views of it, to two
            # nodes; a scalar, a read-only view or another dtype is cast-copied
            own = isinstance(grad, np.ndarray) and grad.flags.writeable and grad.dtype == self.dtype
            self.grad = grad if own else np.array(grad, dtype=self.dtype)
        else:
            self.grad += grad


def grad_node(t: "Tensor") -> "Node | Tensor | None":
    """The node a backward closure hands `t`'s gradient to, or None if `t` needs none."""
    return t._node if t.requires_grad else None


class Tensor:
    """Dense n-dimensional array; a leaf also holds its own gradient slot.

    An op output that requires grad keeps its graph in `_grad_fn`, a `Node`
    (PyTorch's `grad_fn`); its own `grad` stays None and it has no
    `_parents` or `_backward`. `_node` is the tensor's place in the graph:
    that `Node`, or the tensor itself for a leaf.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op", "_grad_fn")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = _as_array(data, dtype=dtype)
        _check_finite(self.data, "leaf")
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._op = "leaf"
        self._grad_fn: Node | None = None

    # -- graph construction -------------------------------------------------

    @classmethod
    def _from_op(
        cls,
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
        op: str,
    ) -> "Tensor":
        data = np.asarray(data)  # numpy arithmetic gives a 0-d result as a scalar
        _check_finite(data, op)
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        out.requires_grad = _grad_enabled and any(p.requires_grad for p in parents)
        out._op = op
        if out.requires_grad:
            out._grad_fn = Node(data.shape, data.dtype, tuple(p._node for p in parents), backward, op)
        else:
            out._parents = ()
            out._backward = None
            out._grad_fn = None
        return out

    @property
    def _node(self) -> "Node | Tensor":
        return self if self._grad_fn is None else self._grad_fn

    def _accum(self, grad: np.ndarray) -> None:
        sink = grad_sink()
        if sink is None:
            Node._accum(self, grad)
            return
        # a block sweep: the block's own slot for this leaf, merged by `join_blocks`
        slot = sink.get(self)
        if slot is None:
            slot = sink[self] = Node(self.shape, self.dtype, (), None, "leaf")
        slot._accum(grad)

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
        """Run one reverse sweep from this tensor's node; returns the tape used.

        Only leaves keep a gradient: each interior node's gradient is dropped
        as soon as its closure has passed it on. A first gradient is adopted,
        not copied; the caller's `grad` is copied, so it is never written. The
        graph stays, and a second backward over it adds its gradients to the
        leaves exactly once more.
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
        self._node._accum(grad)
        _sweep(tape.nodes)
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

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)


class ComputationTape:
    """Nodes reachable from a root tensor's node, in topological (parents-first) order."""

    __slots__ = ("nodes",)

    def __init__(self, nodes: list[Node | Tensor]):
        self.nodes = nodes

    @classmethod
    def trace(cls, root: Tensor) -> "ComputationTape":
        return cls(_topological(root._node))

    def __len__(self):
        return len(self.nodes)


def _topological(root: "Node | Tensor") -> list:
    """The nodes reachable from `root`, parents first."""
    # Iterative DFS; recursion would overflow on long decode chains.
    order: list[Node | Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Node | Tensor, bool]] = [(root, False)]
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
    return order


def _sweep(nodes: list) -> None:
    """Pass each gradient on, in reverse of `nodes`' parents-first order,
    dropping every interior node's gradient once its closure has run."""
    for node in reversed(nodes):
        if node._backward is not None and node.grad is not None:
            g, node.grad = node.grad, None
            node._backward(g)


# -- primitive ops ------------------------------------------------------------
#
# Each closure captures `grad_node`s (None for an operand that needs no
# gradient) and the arrays or shapes it reads, never an operand `Tensor`.
# A closure is kept only when its output requires grad; for a one-operand
# op that means its operand needs a gradient, so its node is never None.


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data
    na, nb, sa, sb = grad_node(a), grad_node(b), a.shape, b.shape

    def backward(g):
        ga = unbroadcast(g, sa) if na is not None else None
        if ga is not None:
            na._accum(ga)
        if nb is not None:
            gb = unbroadcast(g, sb)
            # both may be `g` itself: copy, so a and b never own one buffer
            nb._accum(gb.copy() if ga is not None and np.may_share_memory(ga, gb) else gb)

    return Tensor._from_op(data, (a, b), backward, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data
    na, nb, sa, sb = grad_node(a), grad_node(b), a.shape, b.shape
    ad = a.data if nb is not None else None
    bd = b.data if na is not None else None

    def backward(g):
        if na is not None:
            na._accum(unbroadcast(g * bd, sa))
        if nb is not None:
            nb._accum(unbroadcast(g * ad, sb))

    return Tensor._from_op(data, (a, b), backward, "mul")


def power(a: Tensor, exponent: float) -> Tensor:
    e = float(exponent)
    data = a.data**e
    na, ad = grad_node(a), a.data

    def backward(g):
        na._accum(g * e * ad ** (e - 1.0))

    return Tensor._from_op(data, (a,), backward, "pow")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul requires tensors with at least 2 dimensions")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    data = a.data @ b.data
    na, nb, sa, sb = grad_node(a), grad_node(b), a.shape, b.shape
    ad = a.data if nb is not None else None
    bd = b.data if na is not None else None

    def backward(g):
        if na is not None:
            na._accum(unbroadcast(g @ np.swapaxes(bd, -1, -2), sa))
        if nb is not None:
            nb._accum(unbroadcast(np.swapaxes(ad, -1, -2) @ g, sb))

    return Tensor._from_op(data, (a, b), backward, "matmul")


def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)
    na, sa = grad_node(a), a.shape

    def backward(g):
        na._accum(g.reshape(sa))

    return Tensor._from_op(data, (a,), backward, "reshape")


def swapaxes(a: Tensor, ax1: int, ax2: int) -> Tensor:
    data = np.swapaxes(a.data, ax1, ax2)
    na = grad_node(a)

    def backward(g):
        na._accum(np.swapaxes(g, ax1, ax2))

    return Tensor._from_op(data, (a,), backward, "swapaxes")


def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)
    na, sa, dtype = grad_node(a), a.shape, a.dtype

    def backward(g):
        if axis is None:
            na._accum(np.broadcast_to(g, sa).copy() if np.ndim(g) else np.full(sa, g, dtype=dtype))
            return
        gg = g
        if not keepdims:
            gg = np.expand_dims(g, axis)
        na._accum(np.broadcast_to(gg, sa).copy())

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
    na, sa, dtype = grad_node(a), a.shape, a.dtype

    def backward(g):
        ga = np.zeros(sa, dtype)
        if fancy:
            np.add.at(ga, idx, g)
        else:
            ga[idx] += g
        na._accum(ga)

    return Tensor._from_op(data, (a,), backward, "getitem")


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    ts = list(tensors)
    data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)
    nodes = [grad_node(t) for t in ts]

    def backward(g):
        for n, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            if n is not None:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                n._accum(g[tuple(sl)])

    return Tensor._from_op(data, ts, backward, "concat")


def broadcast_to(a: Tensor, shape) -> Tensor:
    data = np.broadcast_to(a.data, shape).copy()
    na, sa = grad_node(a), a.shape

    def backward(g):
        na._accum(unbroadcast(g, sa))

    return Tensor._from_op(data, (a,), backward, "broadcast_to")


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    data = np.clip(a.data, lo, hi)
    mask = (a.data > lo) & (a.data < hi)
    na = grad_node(a)

    def backward(g):
        na._accum(g * mask)

    return Tensor._from_op(data, (a,), backward, "clip")


def maximum(a: Tensor, b: Tensor) -> Tensor:
    data = np.maximum(a.data, b.data)
    amask = a.data >= b.data
    na, nb, sa, sb = grad_node(a), grad_node(b), a.shape, b.shape

    def backward(g):
        if na is not None:
            na._accum(unbroadcast(g * amask, sa))
        if nb is not None:
            nb._accum(unbroadcast(g * (~amask), sb))

    return Tensor._from_op(data, (a, b), backward, "maximum")


def join_blocks(losses: Sequence[Tensor]) -> Tensor:
    """The sum of scalar block losses, in block order.

    The blocks' graphs may share leaves but no interior node. The backward
    sweeps each block's graph on the `hirisk.workers` pool, its leaf
    gradients held in the block's sink, then adds the sinks to the leaves in
    block order (see the module docstring).
    """
    data = functools.reduce(np.add, [t.data for t in losses])
    nodes = [grad_node(t) for t in losses]

    def backward(g):
        def sweep_block(node):
            node._accum(g.copy())  # each block owns its seed
            _sweep(_topological(node))

        sinks = map_sinks(sweep_block, [n for n in nodes if n is not None])
        for sink in sinks:
            for leaf, slot in sink.items():
                leaf._accum(slot.grad)

    return Tensor._from_op(data, losses, backward, "join_blocks")
