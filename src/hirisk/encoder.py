"""Low-resolution reasoning branch: patch transformer over video frames.

The encoder embeds each frame into patch tokens plus a leading cls token,
runs adapter-then-block layers with attention confined to each frame, pools
over time, and compresses the result to a fixed number of learned query
tokens projected into the language model's dimension.

Incorporation hooks: the encoder places the sites, after layers ceil(K/4),
ceil(K/2) and ceil(3K/4) of its K (`incorporation_sites`). Given one module
per site, it lets the module of each site rewrite the per-frame cls tokens
from the high-resolution features, and stays agnostic about what those
modules do.
"""

from __future__ import annotations

import math

import numpy as np

from . import ops
from .autograd import Tensor, broadcast_to, concat
from .modules import Linear, LayerNorm, Module, ModuleList, Parameter
from .rng import named_rng


class MultiHeadAttention(Module):
    """Scaled dot-product attention, the one attention module of the model.

    Queries are projected from inputs of width `q_dim` and keys and values
    from `kv_dim` (both default to `dim`) into `n_heads` heads that together
    are `dim` wide. With `project` the q and v projections carry a bias and
    `wo` maps the merged heads back to `dim`; without it the merged heads are
    returned as they are. Keys never carry a bias, which the softmax would cancel.
    """

    def __init__(self, dim: int, n_heads: int, rng, kv_dim: int | None = None,
                 q_dim: int | None = None, project: bool = True):
        super().__init__()
        if dim % n_heads:
            raise ValueError("dim must divide by n_heads")
        kv_dim = dim if kv_dim is None else kv_dim
        q_dim = dim if q_dim is None else q_dim
        self.n_heads = n_heads
        self.wq = Linear(q_dim, dim, rng, bias=project)
        self.wk = Linear(kv_dim, dim, rng, bias=False)
        self.wv = Linear(kv_dim, dim, rng, bias=project)
        self.wo = Linear(dim, dim, rng) if project else None

    def forward(self, x: Tensor, kv: Tensor | None = None, mask: np.ndarray | None = None,
                cache: dict | None = None) -> Tensor:
        """`mask` is added to the [B, H, Tq, Tk] scores. With a `cache` dict,
        this call's projected [B, T, dim] keys and values are appended to the
        ones cached by earlier calls, and `x` attends over all of them."""
        kv = x if kv is None else kv
        q, k, v = self.wq(x), self.wk(kv), self.wv(kv)
        if cache is not None:
            if cache:
                k = concat([cache["k"], k], axis=1)
                v = concat([cache["v"], v], axis=1)
            cache["k"], cache["v"] = k, v
        out = ops.attention(q, k, v, self.n_heads, mask)
        return out if self.wo is None else self.wo(out)


class Mlp(Module):
    def __init__(self, dim: int, hidden: int, rng):
        super().__init__()
        self.fc1 = Linear(dim, hidden, rng)
        self.fc2 = Linear(hidden, dim, rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(ops.gelu(self.fc1(x)))


class TransformerBlock(Module):
    """Pre-norm self-attention + MLP with residuals."""

    def __init__(self, dim: int, n_heads: int, rng):
        super().__init__()
        self.ln1 = LayerNorm(dim)
        self.attn = MultiHeadAttention(dim, n_heads, rng)
        self.ln2 = LayerNorm(dim)
        self.mlp = Mlp(dim, 4 * dim, rng)

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

    def __init__(self, dim: int, bottleneck: int, rng):
        super().__init__()
        self.down = Linear(dim, bottleneck, rng)
        self.kernel = Parameter(rng.normal(0.0, 0.02, size=(3, 3, 3, bottleneck)))
        self.up = Linear(bottleneck, dim, rng, zero_init=True)

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

    def __init__(self, dim: int, n_queries: int, n_heads: int, rng):
        super().__init__()
        self.queries = Parameter(rng.normal(0.0, 0.02, size=(n_queries, dim)))
        self.ln_q = LayerNorm(dim)
        self.ln_kv = LayerNorm(dim)
        self.attn = MultiHeadAttention(dim, n_heads, rng)
        self.ln2 = LayerNorm(dim)
        self.mlp = Mlp(dim, 4 * dim, rng)

    def forward(self, tokens: Tensor) -> Tensor:
        b = tokens.shape[0]
        nq, d = self.queries.shape
        q = broadcast_to(self.queries.reshape(1, nq, d), (b, nq, d))
        q = q + self.attn(self.ln_q(q), kv=self.ln_kv(tokens))
        return q + self.mlp(self.ln2(q))


class VideoEncoder(Module):
    """Patch transformer over L frames with per-frame attention."""

    def __init__(self, lr_size: int, clip_len: int, cfg, seed: int | None):
        super().__init__()
        if lr_size % cfg.patch:
            raise ValueError("lr resolution must divide by patch size")
        self.patch = cfg.patch
        self.grid = lr_size // cfg.patch
        self.clip_len = clip_len
        self.d_v = cfg.d_v
        self.n_layers = cfg.n_layers
        n_tokens = 1 + self.grid * self.grid

        r_embed = named_rng(seed, "init/encoder/embed")
        self.patch_proj = Linear(cfg.patch * cfg.patch * 3, cfg.d_v, r_embed)
        self.cls = Parameter(r_embed.normal(0.0, 0.02, size=(1, 1, cfg.d_v)))
        self.pos = Parameter(r_embed.normal(0.0, 0.02, size=(n_tokens, cfg.d_v)))

        self.blocks = ModuleList(
            TransformerBlock(cfg.d_v, cfg.n_heads, named_rng(seed, f"init/encoder/block{i}"))
            for i in range(cfg.n_layers)
        )
        if not cfg.ablation.no_st_adapter:
            self.adapters = ModuleList(
                STAdapter(cfg.d_v, cfg.adapter_dim, named_rng(seed, f"init/encoder/adapter{i}"))
                for i in range(cfg.n_layers)
            )
        self.final_ln = LayerNorm(cfg.d_v)
        self.pooler = QueryPooler(
            cfg.d_v, cfg.n_queries, cfg.n_heads, named_rng(seed, "init/encoder/pooler")
        )
        self.proj = Linear(cfg.d_v, cfg.d_l, named_rng(seed, "init/encoder/proj"))

    def embed(self, clip: np.ndarray) -> Tensor:
        """Frames [B, L, S, S, 3] in [0,1] -> tokens [B*L, 1+G*G, D_v]."""
        b, l, s, _, _ = clip.shape
        p, g = self.patch, self.grid
        x = clip.reshape(b * l, g, p, g, p, 3).transpose(0, 1, 3, 2, 4, 5)
        x = np.ascontiguousarray(x).reshape(b * l, g * g, p * p * 3)
        tok = self.patch_proj(Tensor(x.astype(self.patch_proj.weight.dtype)))
        cls = broadcast_to(self.cls, (b * l, 1, self.d_v))
        return concat([cls, tok], axis=1) + self.pos

    def encode(self, tokens: Tensor, incorporation=None, hr_feats: Tensor | None = None):
        """Run the layer stack over `tokens` from `embed` and pool.

        incorporation: ModuleList of cls-rewrite modules, one per site of
        `incorporation_sites`, each called with the cls tokens and `hr_feats`.
        Returns z_v [B, n_q, d_l].
        """
        bl, t, d = tokens.shape
        l = self.clip_len
        batch = bl // l
        g = self.grid
        sites = {} if incorporation is None else incorporation_sites(self.n_layers)
        x = tokens
        for i in range(self.n_layers):
            if hasattr(self, "adapters"):
                x = self.adapters[i](x, batch, l, g, g)
            x = self.blocks[i](x)
            if i + 1 in sites:
                cls = x[:, 0, :].reshape(batch, l, d)
                new_cls = incorporation[sites[i + 1]](cls, hr_feats)
                x = concat([new_cls.reshape(bl, 1, d), x[:, 1:, :]], axis=1)
        x = self.final_ln(x)
        pooled = x.reshape(batch, l, t, d).mean(axis=1)
        return self.proj(self.pooler(pooled))


def incorporation_sites(n_layers: int) -> dict[int, int]:
    """Uniform placement after layers ceil(K/4), ceil(K/2), ceil(3K/4)."""
    raw = [math.ceil(n_layers / 4), math.ceil(n_layers / 2), math.ceil(3 * n_layers / 4)]
    sites: dict[int, int] = {}
    for k in raw:
        if k not in sites:
            sites[k] = len(sites)
    return sites
