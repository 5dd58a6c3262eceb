"""Low-resolution reasoning branch: patch transformer over video frames.

The encoder embeds each frame into patch tokens plus a leading cls token,
runs adapter-then-block layers with attention confined to each frame, pools
over time, and compresses the result to a fixed number of learned query
tokens projected into the language model's dimension.

Incorporation hooks: after designated layers, an external module may rewrite
the per-frame cls tokens (used by the high-resolution branch). The encoder
itself stays agnostic about what those modules do.
"""

from __future__ import annotations

import math

import numpy as np

from . import ops
from .autograd import Tensor, broadcast_to, concat, swapaxes
from .modules import Linear, LayerNorm, Module, ModuleList, Parameter
from .rng import named_rng


def split_heads(x: Tensor, heads: int) -> Tensor:
    """[B, T, H*dh] -> [B, H, T, dh]."""
    b, t, d = x.shape
    return swapaxes(x.reshape(b, t, heads, d // heads), 1, 2)


class MultiHeadAttention(Module):
    """Scaled dot-product attention, the one attention module of the model.

    Queries are projected from inputs of width `q_dim` and keys and values
    from `kv_dim` (both default to `dim`) into `n_heads` heads that together
    are `dim` wide. With `project` the q/k/v projections carry a bias and
    `wo` maps the merged heads back to `dim`; without it the projections
    are bias-free and the merged heads are returned as they are.
    """

    def __init__(self, dim: int, n_heads: int, rng, dtype, kv_dim: int | None = None,
                 q_dim: int | None = None, project: bool = True):
        super().__init__()
        if dim % n_heads:
            raise ValueError("dim must divide by n_heads")
        kv_dim = dim if kv_dim is None else kv_dim
        q_dim = dim if q_dim is None else q_dim
        self.n_heads = n_heads
        self.wq = Linear(q_dim, dim, rng, bias=project, dtype=dtype)
        self.wk = Linear(kv_dim, dim, rng, bias=project, dtype=dtype)
        self.wv = Linear(kv_dim, dim, rng, bias=project, dtype=dtype)
        self.wo = Linear(dim, dim, rng, dtype=dtype) if project else None

    def forward(self, x: Tensor, kv: Tensor | None = None, mask: np.ndarray | None = None,
                cache: dict | None = None) -> Tensor:
        """`mask` is added to the [B, H, Tq, Tk] scores. With a `cache` dict,
        this call's keys and values are appended to the ones cached by
        earlier calls, and `x` attends over all of them."""
        kv = x if kv is None else kv
        h = self.n_heads
        q = split_heads(self.wq(x), h)
        k = split_heads(self.wk(kv), h)
        v = split_heads(self.wv(kv), h)
        if cache is not None:
            if cache:
                k = concat([cache["k"], k], axis=2)
                v = concat([cache["v"], v], axis=2)
            cache["k"], cache["v"] = k, v
        scale = 1.0 / math.sqrt(q.shape[-1])
        scores = (q @ swapaxes(k, -1, -2)) * scale
        if mask is not None:
            scores = scores + Tensor(mask.astype(scores.data.dtype))
        out = ops.softmax_rows(scores) @ v
        b, _, t, dh = out.shape
        out = swapaxes(out, 1, 2).reshape(b, t, h * dh)
        return out if self.wo is None else self.wo(out)


class Mlp(Module):
    def __init__(self, dim: int, hidden: int, rng, dtype):
        super().__init__()
        self.fc1 = Linear(dim, hidden, rng, dtype=dtype)
        self.fc2 = Linear(hidden, dim, rng, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(ops.gelu(self.fc1(x)))


class TransformerBlock(Module):
    """Pre-norm self-attention + MLP with residuals."""

    def __init__(self, dim: int, n_heads: int, rng, dtype):
        super().__init__()
        self.ln1 = LayerNorm(dim, dtype=dtype)
        self.attn = MultiHeadAttention(dim, n_heads, rng, dtype)
        self.ln2 = LayerNorm(dim, dtype=dtype)
        self.mlp = Mlp(dim, 4 * dim, rng, dtype)

    def forward(self, x: Tensor, mask: np.ndarray | None = None, cache: dict | None = None) -> Tensor:
        x = x + self.attn(self.ln1(x), mask=mask, cache=cache)
        return x + self.mlp(self.ln2(x))


class STAdapter(Module):
    """Residual bottleneck with a depthwise 3D conv over (time, height, width).

    With the up-projection zero-initialized the module is exactly the
    identity, so inserting it leaves a trained or untrained encoder's
    function unchanged at initialization. Applies to patch tokens only;
    the cls token passes through unchanged.
    """

    def __init__(self, dim: int, bottleneck: int, rng, dtype):
        super().__init__()
        self.down = Linear(dim, bottleneck, rng, dtype=dtype)
        self.kernel = Parameter(
            rng.normal(0.0, 0.02, size=(3, 3, 3, bottleneck)), dtype=dtype
        )
        self.up = Linear(bottleneck, dim, rng, dtype=dtype, zero_init=True)

    def forward(self, x: Tensor, b: int, l: int, gh: int, gw: int) -> Tensor:
        cls, patches = x[:, :1, :], x[:, 1:, :]
        z = self.down(patches)
        db = z.shape[-1]
        z = z.reshape(b, l, gh, gw, db)
        z = ops.gelu(ops.depthwise_conv3d(z, self.kernel))
        z = self.up(z.reshape(b * l, gh * gw, db))
        return concat([cls, patches + z], axis=1)


class QueryPooler(Module):
    """Fixed set of learned queries compressed from pooled frame tokens."""

    def __init__(self, dim: int, n_queries: int, n_heads: int, rng, dtype):
        super().__init__()
        self.queries = Parameter(rng.normal(0.0, 0.02, size=(n_queries, dim)), dtype=dtype)
        self.ln_q = LayerNorm(dim, dtype=dtype)
        self.ln_kv = LayerNorm(dim, dtype=dtype)
        self.attn = MultiHeadAttention(dim, n_heads, rng, dtype)
        self.ln2 = LayerNorm(dim, dtype=dtype)
        self.mlp = Mlp(dim, 4 * dim, rng, dtype)

    def forward(self, tokens: Tensor) -> Tensor:
        b = tokens.shape[0]
        nq, d = self.queries.shape
        q = broadcast_to(self.queries.reshape(1, nq, d), (b, nq, d))
        q = q + self.attn(self.ln_q(q), kv=self.ln_kv(tokens))
        return q + self.mlp(self.ln2(q))


class VideoEncoder(Module):
    """Patch transformer over L frames with per-frame attention."""

    def __init__(self, lr_size: int, clip_len: int, cfg, seed: int):
        super().__init__()
        if lr_size % cfg.patch:
            raise ValueError("lr resolution must divide by patch size")
        if cfg.d_v % cfg.n_heads:
            raise ValueError("d_v must divide by n_heads")
        self.patch = cfg.patch
        self.grid = lr_size // cfg.patch
        self.clip_len = clip_len
        self.d_v = cfg.d_v
        self.n_layers = cfg.n_layers
        self.use_adapters = not cfg.ablation.no_st_adapter
        dtype = np.dtype(cfg.dtype)
        n_tokens = 1 + self.grid * self.grid

        r_embed = named_rng(seed, "init/encoder/embed")
        self.patch_proj = Linear(cfg.patch * cfg.patch * 3, cfg.d_v, r_embed, dtype=dtype)
        self.cls = Parameter(r_embed.normal(0.0, 0.02, size=(1, 1, cfg.d_v)), dtype=dtype)
        self.pos = Parameter(r_embed.normal(0.0, 0.02, size=(n_tokens, cfg.d_v)), dtype=dtype)

        self.blocks = ModuleList(
            TransformerBlock(cfg.d_v, cfg.n_heads, named_rng(seed, f"init/encoder/block{i}"), dtype)
            for i in range(cfg.n_layers)
        )
        if self.use_adapters:
            self.adapters = ModuleList(
                STAdapter(cfg.d_v, cfg.adapter_dim, named_rng(seed, f"init/encoder/adapter{i}"), dtype)
                for i in range(cfg.n_layers)
            )
        self.final_ln = LayerNorm(cfg.d_v, dtype=dtype)
        self.pooler = QueryPooler(
            cfg.d_v, cfg.n_queries, cfg.n_heads, named_rng(seed, "init/encoder/pooler"), dtype
        )
        self.proj = Linear(cfg.d_v, cfg.d_l, named_rng(seed, "init/encoder/proj"), dtype=dtype)

    def embed(self, clip: np.ndarray) -> Tensor:
        """Frames [B, L, S, S, 3] in [0,1] -> tokens [B*L, 1+G*G, D_v]."""
        b, l, s, _, _ = clip.shape
        p, g = self.patch, self.grid
        x = clip.reshape(b * l, g, p, g, p, 3).transpose(0, 1, 3, 2, 4, 5)
        x = np.ascontiguousarray(x).reshape(b * l, g * g, p * p * 3)
        tok = self.patch_proj(Tensor(x.astype(self.patch_proj.weight.dtype)))
        cls = broadcast_to(self.cls, (b * l, 1, self.d_v))
        return concat([cls, tok], axis=1) + self.pos

    def encode(self, tokens: Tensor, batch: int, incorporation=None, hr_feats: Tensor | None = None,
               sites: dict[int, int] | None = None):
        """Run the layer stack and pool.

        incorporation: ModuleList of cls-rewrite modules; sites maps layer
        index (1-based, applied after that layer) to the module index.
        Returns (z_v [B, n_q, d_l], pooled tokens [B, T, d_v]).
        """
        bl, t, d = tokens.shape
        l = bl // batch
        g = self.grid
        x = tokens
        for i in range(self.n_layers):
            if self.use_adapters:
                x = self.adapters[i](x, batch, l, g, g)
            x = self.blocks[i](x)
            k = i + 1
            if incorporation is not None and sites and k in sites:
                cls = x[:, 0, :].reshape(batch, l, d)
                new_cls = incorporation[sites[k]](cls, hr_feats)
                x = concat([new_cls.reshape(bl, 1, d), x[:, 1:, :]], axis=1)
        x = self.final_ln(x)
        pooled = x.reshape(batch, l, t, d).mean(axis=1)
        z = self.proj(self.pooler(pooled))
        return z, pooled


def incorporation_sites(n_layers: int) -> dict[int, int]:
    """Uniform placement after layers ceil(K/4), ceil(K/2), ceil(3K/4)."""
    raw = [math.ceil(n_layers / 4), math.ceil(n_layers / 2), math.ceil(3 * n_layers / 4)]
    sites: dict[int, int] = {}
    for k in raw:
        if k not in sites:
            sites[k] = len(sites)
    return sites
