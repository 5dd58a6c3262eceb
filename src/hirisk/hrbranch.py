"""High-resolution perception branch.

Pipeline on one high-resolution frame: a small residual CNN produces a
spatial feature grid; the enumeration module turns a gradient-based saliency
readout (feature-space class-activation mapping against a fixed localization
prompt) into a [0,1] highlight map, which scales the CNN's output grid cell
by cell (`apply_highlight`, called from `model.hr_features`; the CNN runs
once); the incorporation module injects the highlighted features into the
video encoder's cls tokens through zero-gated cross-attention; and a box head
regresses the risk-object box.

Every box head has the same two methods, `loss(h_a, feats, gt)` and
`predict(h_a, feats)`, where `h_a` [B, S, d_l] holds the hidden states of the
answer's noun-phrase span. The span-query head mean-pools the span's
attention over the features, or in its no-QDH form the span itself; the
learned-query head ignores the span and picks among its own queries.

Every attention here is `encoder.MultiHeadAttention` in its bare form
(bias-free q/k/v projections, no output projection): an incorporation site
is a one-head instance plus its gate, and the query-based heads hold one as
`ca`. Their parameter names, `wq.weight`, `wk.weight` and `wv.weight`, are
part of the checkpoint format.

The heatmap is computed in closed form on plain arrays from detached
weights, so it builds no graph and no gradient from the main training
objective ever flows through it.
"""

from __future__ import annotations

import math

import numpy as np

from . import ops
from .autograd import Tensor, broadcast_to, clip, concat, maximum, power, tsum
from .config import HR_STRIDE
from .encoder import MultiHeadAttention
from .modules import Linear, Module, ModuleList, Parameter


# -- box construction ----------------------------------------------------------

MIN_EXTENT = 1e-3


def corners_from_cwh(cwh: Tensor) -> Tensor:
    """(cx, cy, w, h) in (0,1) -> valid corner box [..., 4].

    Guarantees 0 <= x1 < x2 <= 1 (same for y) with extent >= MIN_EXTENT.
    """
    cx, cy = cwh[..., 0:1], cwh[..., 1:2]
    hw, hh = cwh[..., 2:3] * 0.5, cwh[..., 3:4] * 0.5
    x1 = clip(cx - hw, 0.0, 1.0 - MIN_EXTENT)
    y1 = clip(cy - hh, 0.0, 1.0 - MIN_EXTENT)
    x2 = maximum(clip(cx + hw, 0.0, 1.0), x1 + MIN_EXTENT)
    y2 = maximum(clip(cy + hh, 0.0, 1.0), y1 + MIN_EXTENT)
    return concat([x1, y1, x2, y2], axis=-1)


def box_tail(fc1: Linear, fc2: Linear, x: Tensor) -> Tensor:
    """Shared regression tail of every box head: fc -> gelu -> fc -> sigmoid -> corners."""
    return corners_from_cwh(ops.sigmoid(fc2(ops.gelu(fc1(x)))))


# -- spatial extractor ---------------------------------------------------------


class ResidualStage(Module):
    """Two 3x3 convs with a strided 1x1 skip; halves the spatial grid."""

    def __init__(self, c_in: int, c_out: int, rng):
        super().__init__()
        self.w1 = Parameter(rng.normal(0.0, math.sqrt(2.0 / (9 * c_in)), (3, 3, c_in, c_out)))
        self.b1 = Parameter(np.zeros(c_out))
        self.w2 = Parameter(rng.normal(0.0, math.sqrt(2.0 / (9 * c_out)), (3, 3, c_out, c_out)))
        self.b2 = Parameter(np.zeros(c_out))
        self.ws = Parameter(rng.normal(0.0, math.sqrt(2.0 / c_in), (1, 1, c_in, c_out)))

    def forward(self, x: Tensor) -> Tensor:
        y = ops.relu(ops.conv2d(x, self.w1, self.b1, stride=2, padding=1))
        y = ops.conv2d(y, self.w2, self.b2, stride=1, padding=1)
        skip = ops.conv2d(x, self.ws, stride=2, padding=0)
        return ops.relu(y + skip)


class SpatialExtractor(Module):
    """Conv stem + three residual stages; total stride 16.

    128x128 input -> 8x8 grid with 8*width channels.
    """

    def __init__(self, width: int, rng):
        super().__init__()
        self.stem_w = Parameter(rng.normal(0.0, math.sqrt(2.0 / 27), (3, 3, 3, width)))
        self.stem_b = Parameter(np.zeros(width))
        self.stages = ModuleList(
            [
                ResidualStage(width, 2 * width, rng),
                ResidualStage(2 * width, 4 * width, rng),
                ResidualStage(4 * width, 8 * width, rng),
            ]
        )
        self.out_channels = 8 * width

    def forward(self, img: Tensor) -> Tensor:
        if img.shape[1] % HR_STRIDE or img.shape[2] % HR_STRIDE:
            raise ValueError(f"spatial extractor needs resolution divisible by {HR_STRIDE}")
        x = ops.relu(ops.conv2d(img, self.stem_w, self.stem_b, stride=2, padding=1))
        for stage in self.stages:
            x = stage(x)
        return x


# -- enumeration ---------------------------------------------------------------


def unit_prompt(prompt_vec: np.ndarray, dtype) -> np.ndarray:
    """The prompt vector scaled to unit length, as `dtype`."""
    t = np.asarray(prompt_vec, dtype=dtype)
    return t / max(float(np.linalg.norm(t)), 1e-8)


def prompt_cosine(p: Tensor, prompt_vec: np.ndarray) -> Tensor:
    """Cosine similarity between projected features [B, d_l] and a fixed prompt."""
    t = unit_prompt(prompt_vec, p.data.dtype)
    dot = tsum(p * Tensor(t), axis=-1)
    inv_norm = power(tsum(p * p, axis=-1) + 1e-8, -0.5)
    return dot * inv_norm


class ObjectHighlighter(Module):
    """Similarity model and class-activation highlight over a feature grid."""

    def __init__(self, d_i: int, d_l: int, rng):
        super().__init__()
        self.proj = Linear(d_i, d_l, rng, bias=False)
        self.scale = Parameter(np.asarray(10.0))

    def similarity(self, feats: Tensor, prompt_vec: np.ndarray) -> Tensor:
        """Cosine similarity between pooled projected features and the prompt."""
        return prompt_cosine(self.proj(feats.mean(axis=(1, 2))), prompt_vec)

    def presence_logits(self, feats: Tensor, prompt_vec: np.ndarray) -> Tensor:
        return self.scale * self.similarity(feats, prompt_vec)

    def heatmap(self, feats: np.ndarray, prompt_vec: np.ndarray) -> np.ndarray:
        """[B, H, W, C] features -> [B, H, W] map in [0, 1], fully detached.

        Channel weights are the spatial mean of d(similarity)/d(features),
        in closed form and in float64 with the projection weights treated as
        constants. With p the projected spatial mean, t the unit prompt and
        s = (|p|^2 + 1e-8)^-1/2, d cos/dp = t s - (p.t) s^3 p; each cell's
        gradient is that times W^T over H*W. A map whose positive part is
        empty stays identically zero.
        """
        a = np.asarray(feats, dtype=np.float64)
        wt = self.proj.weight.data.astype(np.float64)
        t = unit_prompt(prompt_vec, np.float64)
        p = a.mean(axis=(1, 2)) @ wt  # [B, d_l]
        s = ((p * p).sum(axis=-1, keepdims=True) + 1e-8) ** -0.5
        dp = t * s - (p @ t)[:, None] * s**3 * p
        w = (dp @ wt.T) / (a.shape[1] * a.shape[2])  # [B, C]
        raw = np.einsum("bhwc,bc->bhw", a, w)
        raw = np.maximum(raw, 0.0)
        mx = raw.max(axis=(1, 2), keepdims=True)
        return np.divide(raw, mx, out=np.zeros_like(raw), where=mx > 0)


def apply_highlight(mask: np.ndarray, feats: Tensor) -> Tensor:
    """Elementwise per-cell scaling: mask [B, H, W] on features [B, H, W, C]."""
    return feats * Tensor(mask[..., None].astype(feats.data.dtype))


# -- incorporation -------------------------------------------------------------


class IncorporationSite(MultiHeadAttention):
    """Single-head cross-attention from cls tokens into HR features.

    Output = alpha * attended + cls with alpha starting at exactly zero, so
    a fresh site is invisible to the rest of the network.
    """

    def __init__(self, d_v: int, d_i: int, rng):
        super().__init__(d_v, 1, rng, kv_dim=d_i, project=False)
        self.alpha = Parameter(np.zeros(()))

    def forward(self, cls: Tensor, feats: Tensor) -> Tensor:
        return self.alpha * super().forward(cls, kv=feats) + cls


# -- detection heads -----------------------------------------------------------


class SpanQueryDetector(Module):
    """Answer-span hidden states query the highlighted HR features.

    With `d_i=None` it is the no-QDH head: no cross-attention `ca`, and the
    span is pooled as it is. The cross-attention is multi-head; with a single
    head the attention is slow to sharpen and box regression stalls near the
    dataset-mean box.
    """

    def __init__(self, d_l: int, d_i: int | None, d_a: int, rng, heads: int = 4):
        super().__init__()
        if d_i is not None:
            self.ca = MultiHeadAttention(d_a, heads, rng, kv_dim=d_i, q_dim=d_l, project=False)
        self.fc1 = Linear(d_l if d_i is None else d_a, d_a, rng)
        self.fc2 = Linear(d_a, 4, rng)

    def forward(self, h_a: Tensor, feats) -> Tensor:
        if h_a.shape[1] == 0:
            raise ValueError("answer span is empty")
        rows = self.ca(h_a, kv=feats) if hasattr(self, "ca") else h_a
        return box_tail(self.fc1, self.fc2, rows.mean(axis=1))

    def loss(self, h_a: Tensor, feats, gt: np.ndarray) -> Tensor:
        """L1 distance of the span's box to the ground truth."""
        return ops.l1_loss(self(h_a, feats), gt)

    def predict(self, h_a: Tensor, feats) -> Tensor:
        """Box [B, 4] of the span."""
        return self(h_a, feats)


class LearnedQueryDetector(Module):
    """Detection from learned query embeddings with per-query objectness.

    `loss` and `predict` take the span `h_a` as every box head does but read
    only `feats`: the queries, not the answer span, attend the HR features.
    """

    def __init__(self, n_queries: int, d_l: int, d_i: int, d_a: int, rng, heads: int = 4):
        super().__init__()
        self.queries = Parameter(rng.normal(0.0, 0.02, size=(n_queries, d_l)))
        self.ca = MultiHeadAttention(d_a, heads, rng, kv_dim=d_i, q_dim=d_l, project=False)
        self.fc1 = Linear(d_a, d_a, rng)
        self.fc2 = Linear(d_a, 4, rng)
        self.obj = Linear(d_a, 1, rng)

    def forward(self, feats: Tensor):
        """Returns (boxes [B, N, 4], objectness logits [B, N])."""
        b = feats.shape[0]
        n, d = self.queries.shape
        q = broadcast_to(self.queries.reshape(1, n, d), (b, n, d))
        att = self.ca(q, kv=feats)
        return box_tail(self.fc1, self.fc2, att), self.obj(att)[..., 0]

    def loss(self, h_a, feats: Tensor, gt: np.ndarray) -> Tensor:
        """Min-cost matching against the single ground-truth box."""
        boxes, obj = self(feats)
        gt = np.asarray(gt, dtype=boxes.data.dtype)
        b, n, _ = boxes.shape
        per_query = np.abs(boxes.data - gt[:, None, :]).mean(axis=-1)
        istar = per_query.argmin(axis=1)
        chosen = boxes[(np.arange(b), istar)]
        box_loss = ops.l1_loss(chosen, gt)
        onehot = np.zeros((b, n), dtype=boxes.data.dtype)
        onehot[np.arange(b), istar] = 1.0
        obj_loss = ops.binary_cross_entropy_logits(obj, onehot)
        return box_loss + obj_loss

    def predict(self, h_a, feats: Tensor) -> Tensor:
        """Box [B, 4] of the query with the highest objectness."""
        boxes, obj = self(feats)
        istar = obj.data.argmax(axis=1)
        return boxes[(np.arange(boxes.shape[0]), istar)]
