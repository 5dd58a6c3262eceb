"""Minimal parameter-container layer on top of the autograd core.

Modules register `Parameter`s (trainable tensors) and child modules by
attribute assignment. `named_parameters()` walks the tree in a stable
depth-first order, which the checkpoint format and the optimizer rely on.

Parameters are built at the precision of their float64 init draws; the
model picks its precision once, after construction, with `astype`.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .autograd import Tensor


class Parameter(Tensor):
    """A tensor that is trained; always requires grad."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    def __init__(self):
        self._params: dict[str, Parameter] = {}
        self._children: dict[str, Module] = {}

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_params", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_children", {})[name] = value
        object.__setattr__(self, name, value)

    def named_parameters(self, prefix: str = ""):
        for name, p in self._params.items():
            yield (prefix + name, p)
        for name, child in self._children.items():
            yield from child.named_parameters(prefix + name + ".")

    def parameters(self):
        for _, p in self.named_parameters():
            yield p

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def astype(self, dtype) -> Module:
        """Cast every parameter to `dtype` in place; returns `self`."""
        for _, p in self.named_parameters():
            p.data = p.data.astype(dtype)
        return self

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        if set(own) != set(state):
            missing = sorted(set(own) - set(state))
            extra = sorted(set(state) - set(own))
            raise KeyError(f"state dict mismatch: missing={missing} unexpected={extra}")
        for name, p in own.items():
            arr = np.asarray(state[name], dtype=p.data.dtype)
            if arr.shape != p.shape:
                raise ValueError(f"shape mismatch for '{name}': {arr.shape} vs {p.shape}")
            p.data = arr.copy()

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    def __init__(self, mods=()):
        super().__init__()
        self._items: list[Module] = []
        for m in mods:
            self.append(m)

    def append(self, mod: Module):
        setattr(self, str(len(self._items)), mod)
        self._items.append(mod)

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, i):
        return self._items[i]


class Linear(Module):
    """y = x W + b with Lecun-style fan-in init."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator, bias: bool = True,
                 zero_init: bool = False):
        super().__init__()
        if zero_init:
            w = np.zeros((d_in, d_out))
        else:
            w = rng.normal(0.0, 1.0 / np.sqrt(d_in), size=(d_in, d_out))
        self.weight = Parameter(w)
        self.bias = Parameter(np.zeros(d_out)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return ops.linear(x, self.weight, self.bias)


class LayerNorm(Module):
    def __init__(self, dim: int):
        super().__init__()
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))

    def forward(self, x: Tensor) -> Tensor:
        return ops.layer_norm(x, self.gamma, self.beta)


class Embedding(Module):
    def __init__(self, n_rows: int, dim: int, rng: np.random.Generator):
        super().__init__()
        self.weight = Parameter(rng.normal(0.0, 0.02, size=(n_rows, dim)))

    def forward(self, idx: np.ndarray) -> Tensor:
        return ops.embedding_lookup(self.weight, idx)
