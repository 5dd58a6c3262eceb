"""Differentiable kernels built on the autograd core.

Everything here takes and returns `Tensor`s and registers a hand-derived
backward closure. Shapes follow a channels-last convention: images are
[B, H, W, C] and token grids are [B, T, H, W, C].
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

from .autograd import ShapeError, Tensor

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


# -- activations ---------------------------------------------------------------


def relu(x: Tensor) -> Tensor:
    data = np.maximum(x.data, 0.0)
    mask = x.data > 0.0

    def backward(g):
        if x.requires_grad:
            x._accum(g * mask)

    return Tensor._from_op(data, (x,), backward, "relu")


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) Gaussian error linear unit."""
    cdf = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))
    data = x.data * cdf
    pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT2PI

    def backward(g):
        if x.requires_grad:
            x._accum(g * (cdf + x.data * pdf))

    return Tensor._from_op(data, (x,), backward, "gelu")


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # piecewise form keeps exp() from overflowing for large |x|
    pos = x >= 0
    z = np.exp(np.where(pos, -x, x))
    return np.where(pos, 1.0 / (1.0 + z), z / (1.0 + z))


def sigmoid(x: Tensor) -> Tensor:
    data = _stable_sigmoid(x.data)

    def backward(g):
        if x.requires_grad:
            x._accum(g * data * (1.0 - data))

    return Tensor._from_op(data, (x,), backward, "sigmoid")


# -- normalization and attention helpers ---------------------------------------


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax over the last axis, stabilized by max subtraction."""
    m = x.data.max(axis=-1, keepdims=True)
    e = np.exp(x.data - m)
    p = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        if x.requires_grad:
            dot = (g * p).sum(axis=-1, keepdims=True)
            x._accum(p * (g - dot))

    return Tensor._from_op(p, (x,), backward, "softmax_rows")


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    if gamma.shape != (x.shape[-1],) or beta.shape != (x.shape[-1],):
        raise ShapeError("layer_norm scale/shift must match the feature axis")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    data = gamma.data * xhat + beta.data
    d = x.shape[-1]

    def backward(g):
        if gamma.requires_grad:
            gamma._accum((g * xhat).reshape(-1, d).sum(axis=0))
        if beta.requires_grad:
            beta._accum(g.reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            dxhat = g * gamma.data
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            x._accum(inv * (dxhat - m1 - xhat * m2))

    return Tensor._from_op(data, (x, gamma, beta), backward, "layer_norm")


# -- convolutions --------------------------------------------------------------


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, stride: int = 1, padding: int = 0) -> Tensor:
    """2D convolution (cross-correlation), channels last.

    x: [B, H, W, Cin]; w: [kh, kw, Cin, Cout]; returns [B, Ho, Wo, Cout].
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError("conv2d expects x[B,H,W,Cin] and w[kh,kw,Cin,Cout]")
    if x.shape[-1] != w.shape[2]:
        raise ShapeError(f"conv2d channel mismatch: {x.shape} vs {w.shape}")
    kh, kw, cin, cout = w.shape
    s, p = int(stride), int(padding)
    xp = np.pad(x.data, ((0, 0), (p, p), (p, p), (0, 0))) if p else x.data
    bsz, hp, wp, _ = xp.shape
    ho = (hp - kh) // s + 1
    wo = (wp - kw) // s + 1
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    win = win[:, ::s, ::s]  # [B, Ho, Wo, Cin, kh, kw]
    cols = win.transpose(0, 1, 2, 4, 5, 3).reshape(bsz * ho * wo, kh * kw * cin)
    out = cols @ w.data.reshape(kh * kw * cin, cout)
    if b is not None:
        out = out + b.data
    data = out.reshape(bsz, ho, wo, cout)
    parents = (x, w) if b is None else (x, w, b)

    def backward(g):
        gflat = g.reshape(bsz * ho * wo, cout)
        if b is not None and b.requires_grad:
            b._accum(gflat.sum(axis=0))
        if w.requires_grad:
            w._accum((cols.T @ gflat).reshape(kh, kw, cin, cout))
        if x.requires_grad:
            dcol = (gflat @ w.data.reshape(kh * kw * cin, cout).T).reshape(bsz, ho, wo, kh, kw, cin)
            dxp = np.zeros_like(xp)
            for i in range(kh):
                for j in range(kw):
                    dxp[:, i : i + ho * s : s, j : j + wo * s : s, :] += dcol[:, :, :, i, j, :]
            x._accum(dxp[:, p : hp - p, p : wp - p, :] if p else dxp)

    return Tensor._from_op(data, parents, backward, "conv2d")


def depthwise_conv3d(x: Tensor, w: Tensor) -> Tensor:
    """Per-channel 3D convolution over (time, height, width), same padding.

    x: [B, T, H, W, C]; w: [kt, kh, kw, C] with odd kernel sizes.
    """
    if x.ndim != 5 or w.ndim != 4:
        raise ShapeError("depthwise_conv3d expects x[B,T,H,W,C] and w[kt,kh,kw,C]")
    kt, kh, kw, c = w.shape
    if c != x.shape[-1]:
        raise ShapeError("depthwise kernel channel count must match input")
    if kt % 2 == 0 or kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError("depthwise_conv3d requires odd kernel sizes")
    pt, ph, pw = kt // 2, kh // 2, kw // 2
    bsz, t, h, wd, _ = x.shape
    xp = np.pad(x.data, ((0, 0), (pt, pt), (ph, ph), (pw, pw), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kt, kh, kw), axis=(1, 2, 3))
    # win: [B, T, H, W, C, kt, kh, kw]
    data = np.einsum("bthwcuvz,uvzc->bthwc", win, w.data, optimize=True)

    def backward(g):
        if w.requires_grad:
            w._accum(np.einsum("bthwcuvz,bthwc->uvzc", win, g, optimize=True))
        if x.requires_grad:
            dxp = np.zeros_like(xp)
            for dt in range(kt):
                for di in range(kh):
                    for dj in range(kw):
                        dxp[:, dt : dt + t, di : di + h, dj : dj + wd, :] += g * w.data[dt, di, dj, :]
            x._accum(dxp[:, pt : pt + t, ph : ph + h, pw : pw + wd, :])

    return Tensor._from_op(data, (x, w), backward, "depthwise_conv3d")


# -- losses --------------------------------------------------------------------


def cross_entropy_logits(logits: Tensor, targets: np.ndarray, mask: np.ndarray | None = None) -> Tensor:
    """Mean negative log-likelihood of integer targets under row softmax.

    logits: [..., V]; targets: int array matching the leading shape; mask, if
    given, weights each position (zeros drop padding) and the mean runs over
    the mask sum.
    """
    targets = np.asarray(targets)
    if targets.shape != logits.shape[:-1]:
        raise ShapeError("cross_entropy targets must match logits leading shape")
    v = logits.shape[-1]
    flat = logits.data.reshape(-1, v)
    tflat = targets.reshape(-1)
    if mask is None:
        mflat = np.ones(tflat.shape[0], dtype=flat.dtype)
    else:
        mflat = np.asarray(mask, dtype=flat.dtype).reshape(-1)
    denom = mflat.sum()
    if denom <= 0:
        raise ValueError("cross_entropy mask selects no positions")
    m = flat.max(axis=-1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(flat - m).sum(axis=-1))
    nll = lse - flat[np.arange(flat.shape[0]), tflat]
    data = np.asarray((nll * mflat).sum() / denom)

    def backward(g):
        if logits.requires_grad:
            p = np.exp(flat - lse[:, None])
            p[np.arange(flat.shape[0]), tflat] -= 1.0
            p *= (mflat / denom)[:, None]
            logits._accum((g * p).reshape(logits.shape))

    return Tensor._from_op(data, (logits,), backward, "cross_entropy")


def l1_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean absolute error against a constant target."""
    target = np.asarray(target, dtype=pred.data.dtype)
    if target.shape != pred.shape:
        raise ShapeError("l1_loss target must match prediction shape")
    diff = pred.data - target
    data = np.asarray(np.abs(diff).mean())
    n = pred.size

    def backward(g):
        if pred.requires_grad:
            pred._accum(g * np.sign(diff) / n)

    return Tensor._from_op(data, (pred,), backward, "l1_loss")


def binary_cross_entropy_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean sigmoid BCE against {0,1} targets, computed in log-space."""
    t = np.asarray(targets, dtype=logits.data.dtype)
    if t.shape != logits.shape:
        raise ShapeError("bce targets must match logits shape")
    z = logits.data
    # log(1 + exp(-|z|)) + max(z,0) - z*t, the standard stable form
    data = np.asarray((np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))).mean())
    n = logits.size

    def backward(g):
        if logits.requires_grad:
            logits._accum(g * (_stable_sigmoid(z) - t) / n)

    return Tensor._from_op(data, (logits,), backward, "bce_logits")


# -- indexing helpers ----------------------------------------------------------


def embedding_lookup(table: Tensor, idx: np.ndarray) -> Tensor:
    """Row lookup: table [V, D], idx int [...] -> [..., D].

    Duplicate indices accumulate gradient (scatter-add).
    """
    idx = np.asarray(idx)
    data = table.data[idx]

    def backward(g):
        if table.requires_grad:
            gt = np.zeros_like(table.data)
            np.add.at(gt, idx, g)
            table._accum(gt)

    return Tensor._from_op(data, (table,), backward, "embedding_lookup")


def masked_mean_rows(x: Tensor, mask: np.ndarray) -> Tensor:
    """Weighted mean over axis 1: x [B, T, D], mask [B, T] -> [B, D]."""
    m = np.asarray(mask, dtype=x.data.dtype)
    if m.shape != x.shape[:2]:
        raise ShapeError("masked_mean_rows mask must be [B, T]")
    denom = m.sum(axis=1, keepdims=True)
    if np.any(denom <= 0):
        raise ValueError("masked_mean_rows: empty mask row")
    wgt = (m / denom)[:, :, None]
    data = (x.data * wgt).sum(axis=1)

    def backward(g):
        if x.requires_grad:
            x._accum(g[:, None, :] * wgt)

    return Tensor._from_op(data, (x,), backward, "masked_mean_rows")
