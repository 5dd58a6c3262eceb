"""Differentiable kernels built on the autograd core.

Everything here takes and returns `Tensor`s and registers a hand-derived
backward closure. Shapes follow a channels-last convention: images are
[B, H, W, C] and token grids are [B, T, H, W, C].

The graph holds nodes, not op outputs (see `autograd`), and keeps each
closure until the backward sweep has run it, so what the closures keep is
most of a training step's memory. Each keeps its operands' nodes and only
the arrays its backward reads: `relu` and `sigmoid` their output; `gelu`
its derivative, computed in the forward pass; `softmax_rows` and
`attention` their probabilities (`attention` also views of q, k and v, but
no scores and no per-head copies); `linear` its input and weight;
`layer_norm` the normalised input, inverse deviations and scale; `conv2d`
its unpadded input and weight (never a padded copy or an im2col matrix);
`depthwise_conv3d` its padded input and flipped kernel;
`cross_entropy_logits` the logits, log-sum-exps and mask weights; `l1_loss`
the residual; `binary_cross_entropy_logits` the logits and targets; and
`embedding_lookup` the indices. An array an operand's gradient does not
need (say, `linear`'s input when its weight is frozen) is not kept.

`gelu` computes float64 with scipy's double-precision erf, the precision
`gradcheck` and every finite-difference test run at; scipy is imported
there, on the first float64 call, and nowhere else. float32 takes a float32
rational erf, within 4.7e-7 of the double one on every float32 input, so
its normal CDF is within 2.6e-7: float32 noise. A float32 run never loads
scipy.
"""

from __future__ import annotations

import math

import numpy as np

from .autograd import ShapeError, Tensor, _check_finite, grad_node

# Python floats, not numpy scalars: under NEP 50 a float64 numpy scalar
# promotes float32 arrays to float64, a Python float does not.
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


# -- activations ---------------------------------------------------------------


def relu(x: Tensor) -> Tensor:
    data = np.maximum(x.data, 0.0)
    nx = grad_node(x)

    def backward(g):
        # data > 0 exactly where x > 0 (NaN and -0.0 included)
        nx._accum(g * (data > 0.0))

    return Tensor._from_op(data, (x,), backward, "relu")


# Elements per pass of the float32 erf. Its three temporaries (z, P and Q:
# 768 KB at this size) stay in L2 through the rational's 24 ufunc passes over
# a chunk. On a [2600, 256] input, on 2 CPUs, 4,096-element chunks take 5.0 ms,
# 65,536 take 2.4 ms and the whole array in one pass 4.8 ms, against 14.2 ms
# for scipy's erf (interleaved medians of 30).
ERF_CHUNK = 65536

# erf(x) = x * P(x^2) / Q(x^2) on x clipped to [-4, 4], past which float32
# erf rounds to +-1 (Eigen's float32 erf); coefficients highest power first.
_ERF_P = (
    -2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06, -5.69250639462346e-05,
    -7.34990630326855e-04, -2.95459980854025e-03, -1.60960333262415e-02,
)
_ERF_Q = (
    -1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03, -7.37332916720468e-03,
    -1.42647390514189e-02,
)


def _horner(coefs: tuple, z: np.ndarray, out: np.ndarray) -> None:
    np.multiply(z, coefs[0], out=out)
    out += coefs[1]
    for c in coefs[2:]:
        out *= z
        out += c


def _erf32(v: np.ndarray) -> np.ndarray:
    """erf of a float32 array in float32, `ERF_CHUNK` elements at a time.

    Works in place when `v` is C-contiguous (otherwise on a C-order copy) and
    returns the result. It is odd bit for bit, exactly +-1 past the clip, and
    keeps NaN.
    """
    flat = v.reshape(-1)
    z, p, q = (np.empty(min(flat.size, ERF_CHUNK), np.float32) for _ in range(3))
    for lo in range(0, flat.size, ERF_CHUNK):
        c = flat[lo : lo + ERF_CHUNK]
        zc, pc, qc = z[: c.size], p[: c.size], q[: c.size]
        np.clip(c, -4.0, 4.0, out=c)
        np.multiply(c, c, out=zc)
        _horner(_ERF_P, zc, pc)
        _horner(_ERF_Q, zc, qc)
        pc *= c
        np.divide(pc, qc, out=c)
    return flat.reshape(v.shape)


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) Gaussian error linear unit.

    float64 takes scipy's erf, the precision gradient checks run at, and is
    the only caller that imports scipy. float32 takes `_erf32`, whose normal
    CDF is within 2.6e-7 of the double one (half its erf bound plus the
    rounding of 1 + erf). When the output records a node, the forward pass
    also computes the derivative cdf + x * pdf, and the closure keeps that
    one array rather than x and the CDF; under `no_grad` it is not computed.
    """
    nx, xd = grad_node(x), x.data
    cdf = xd * _INV_SQRT2
    if cdf.dtype == np.float32:
        cdf = _erf32(cdf)
    else:
        from scipy.special import erf

        erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    data = xd * cdf
    if nx is None:
        return Tensor._from_op(data, (x,), None, "gelu")
    # cdf + x * pdf, built in one buffer
    d = -0.5 * xd
    d *= xd
    np.exp(d, out=d)
    d *= _INV_SQRT2PI
    d *= xd
    d += cdf

    def backward(g):
        nx._accum(g * d)

    return Tensor._from_op(data, (x,), backward, "gelu")


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # piecewise form keeps exp() from overflowing for large |x|
    pos = x >= 0
    z = np.exp(np.where(pos, -x, x))
    return np.where(pos, 1.0 / (1.0 + z), z / (1.0 + z))


def sigmoid(x: Tensor) -> Tensor:
    data = _stable_sigmoid(x.data)
    nx = grad_node(x)

    def backward(g):
        nx._accum(g * data * (1.0 - data))

    return Tensor._from_op(data, (x,), backward, "sigmoid")


# -- dense layers -------------------------------------------------------------


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x [..., K] @ w [K, N] (+ b [N]) as one 2-D GEMM over the flattened rows."""
    if w.ndim != 2 or x.ndim < 1 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear expects x[..., K] and w[K, N]: {x.shape} x {w.shape}")
    k, n = w.shape
    if b is not None and b.shape != (n,):
        raise ShapeError(f"linear bias must be [{n}], got {b.shape}")
    x2 = x.data.reshape(-1, k)
    out = x2 @ w.data
    if b is not None:
        out += b.data
    parents = (x, w) if b is None else (x, w, b)
    nx, nw, nb, sx = grad_node(x), grad_node(w), None if b is None else grad_node(b), x.shape
    # the x-gradient reads w, the w-gradient x
    wd = w.data if nx is not None else None
    xd = x2 if nw is not None else None

    def backward(g):
        g2 = g.reshape(-1, n)
        if nx is not None:
            nx._accum((g2 @ wd.T).reshape(sx))
        if nw is not None:
            nw._accum(xd.T @ g2)
        if nb is not None:
            nb._accum(g2.sum(axis=0))

    return Tensor._from_op(out.reshape(x.shape[:-1] + (n,)), parents, backward, "linear")


# -- normalization and attention helpers ---------------------------------------


def _softmax(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # max-subtracted softmax over the last axis; `out` may be `x` itself
    p = np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return p


def _softmax_grad(g: np.ndarray, p: np.ndarray) -> np.ndarray:
    gx = g - (g * p).sum(axis=-1, keepdims=True)
    gx *= p
    return gx


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax over the last axis, stabilized by max subtraction."""
    p = _softmax(x.data)
    nx = grad_node(x)

    def backward(g):
        nx._accum(_softmax_grad(g, p))

    return Tensor._from_op(p, (x,), backward, "softmax_rows")


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, mask: np.ndarray | None = None) -> Tensor:
    """Scaled dot-product attention over `heads` heads, as one tape node.

    q [B, Tq, H*dh], k and v [B, Tk, H*dh] -> merged heads [B, Tq, H*dh];
    `mask` is added to the [B, H, Tq, Tk] scores. The scores are scaled,
    masked and normalised in one buffer, and the closure keeps only that
    softmax output plus views of q, k and v. Forward and backward do the
    numpy arithmetic of the equivalent chain of matmul, mul, add,
    softmax_rows, swapaxes and reshape nodes in its order, so results match
    that chain bit for bit.
    """
    if q.ndim != 3 or k.ndim != 3 or k.shape != v.shape or k.shape[::2] != q.shape[::2] or q.shape[2] % heads:
        raise ShapeError(f"attention expects q[B,Tq,D], k=v[B,Tk,D], D divisible by heads: "
                         f"{q.shape}, {k.shape}, {v.shape}, heads={heads}")
    b, tq, d = q.shape
    tk, dh = k.shape[1], d // heads
    q4, k4, v4 = (np.swapaxes(t.data.reshape(b, -1, heads, dh), 1, 2) for t in (q, k, v))
    p = q4 @ np.swapaxes(k4, -1, -2)
    scale = np.asarray(1.0 / math.sqrt(dh), dtype=p.dtype)
    p *= scale
    if mask is not None:
        p += mask
    _check_finite(p, "attention")
    _softmax(p, out=p)
    data = np.swapaxes(p @ v4, 1, 2).reshape(b, tq, d)
    nq, nk, nv = grad_node(q), grad_node(k), grad_node(v)

    def backward(g):
        g4 = np.swapaxes(g.reshape(b, tq, heads, dh), 1, 2)
        if nq is not None or nk is not None:
            gs = _softmax_grad(g4 @ np.swapaxes(v4, -1, -2), p)
            gs *= scale
            if nq is not None:
                nq._accum(np.swapaxes(gs @ k4, 1, 2).reshape(b, tq, d))
            if nk is not None:
                gk = np.swapaxes(np.swapaxes(q4, -1, -2) @ gs, -1, -2)
                nk._accum(np.swapaxes(gk, 1, 2).reshape(b, tk, d))
        if nv is not None:
            nv._accum(np.swapaxes(np.swapaxes(p, -1, -2) @ g4, 1, 2).reshape(b, tk, d))

    return Tensor._from_op(data, (q, k, v), backward, "attention")


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
    nx, ngamma, nbeta, gd = grad_node(x), grad_node(gamma), grad_node(beta), gamma.data

    def backward(g):
        if ngamma is not None:
            ngamma._accum((g * xhat).reshape(-1, d).sum(axis=0))
        if nbeta is not None:
            nbeta._accum(g.reshape(-1, d).sum(axis=0))
        if nx is not None:
            # inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), in two buffers
            dxhat = g * gd
            t = dxhat * xhat
            m2 = t.mean(axis=-1, keepdims=True)
            dxhat -= dxhat.mean(axis=-1, keepdims=True)
            np.multiply(xhat, m2, out=t)
            dxhat -= t
            dxhat *= inv
            nx._accum(dxhat)

    return Tensor._from_op(data, (x, gamma, beta), backward, "layer_norm")


# -- convolutions --------------------------------------------------------------


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, stride: int = 1, padding: int = 0) -> Tensor:
    """2D convolution (cross-correlation), channels last.

    x: [B, H, W, Cin]; w: [kh, kw, Cin, Cout]; returns [B, Ho, Wo, Cout].
    Forward is one im2col GEMM over the whole batch, and the x-gradient one
    GEMM and a col2im sum over the taps. The closure keeps the unpadded
    input, which a ReLU-fed conv's producer keeps anyway, and neither a
    padded copy nor the im2col matrix: the weight gradient re-pads the input
    and rebuilds that matrix for its one GEMM.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError("conv2d expects x[B,H,W,Cin] and w[kh,kw,Cin,Cout]")
    if x.shape[-1] != w.shape[2]:
        raise ShapeError(f"conv2d channel mismatch: {x.shape} vs {w.shape}")
    kh, kw, cin, cout = w.shape
    s, p = int(stride), int(padding)
    pads = ((0, 0), (p, p), (p, p), (0, 0))
    bsz, hp, wp = x.shape[0], x.shape[1] + 2 * p, x.shape[2] + 2 * p
    ho = (hp - kh) // s + 1
    wo = (wp - kw) // s + 1
    n = ho * wo

    def cols(xp):
        win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
        win = win[:, ::s, ::s]  # [B, Ho, Wo, Cin, kh, kw]
        return win.transpose(0, 1, 2, 4, 5, 3).reshape(bsz * n, kh * kw * cin)

    w2 = w.data.reshape(kh * kw * cin, cout)
    out = cols(np.pad(x.data, pads) if p else x.data) @ w2
    if b is not None:
        out += b.data
    data = out.reshape(bsz, ho, wo, cout)
    parents = (x, w) if b is None else (x, w, b)
    nx, nw, nb, dtype = grad_node(x), grad_node(w), None if b is None else grad_node(b), x.dtype
    # the x-gradient reads w, the w-gradient x
    wt = w2 if nx is not None else None
    xd = x.data if nw is not None else None

    def backward(g):
        gflat = g.reshape(bsz * n, cout)
        if nb is not None:
            nb._accum(gflat.sum(axis=0))
        if nw is not None:
            nw._accum((cols(np.pad(xd, pads) if p else xd).T @ gflat).reshape(kh, kw, cin, cout))
        if nx is not None:
            dcol = (gflat @ wt.T).reshape(bsz, ho, wo, kh, kw, cin)
            dxp = np.zeros((bsz, hp, wp, cin), dtype)
            for i in range(kh):
                for j in range(kw):
                    dxp[:, i : i + ho * s : s, j : j + wo * s : s, :] += dcol[:, :, :, i, j, :]
            nx._accum(dxp[:, p : hp - p, p : wp - p, :] if p else dxp)

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
    pads = ((0, 0), (kt // 2, kt // 2), (kh // 2, kh // 2), (kw // 2, kw // 2), (0, 0))
    shape, sw = x.shape, w.shape
    _, t, h, wd, _ = shape
    taps = [(dt, di, dj) for dt in range(kt) for di in range(kh) for dj in range(kw)]

    def correlate(src, kernel):
        # out[p] = sum over taps of src[p + tap] * kernel[tap], in two buffers
        out = np.zeros(shape, dtype=np.result_type(src, kernel))
        tmp = np.empty_like(out)
        for dt, di, dj in taps:
            np.multiply(src[:, dt : dt + t, di : di + h, dj : dj + wd, :], kernel[dt, di, dj], out=tmp)
            out += tmp
        return out

    xp = np.pad(x.data, pads)
    data = correlate(xp, w.data)
    nx, nw = grad_node(x), grad_node(w)
    # the x-gradient reads w, the w-gradient the padded x
    flipped = w.data[::-1, ::-1, ::-1] if nx is not None else None
    xp = xp if nw is not None else None

    def backward(g):
        if nw is not None:
            g2 = g.reshape(-1, c)
            dw = [np.einsum("nc,nc->c", xp[:, dt : dt + t, di : di + h, dj : dj + wd, :].reshape(-1, c), g2)
                  for dt, di, dj in taps]
            nw._accum(np.reshape(dw, sw))
        if nx is not None:
            # the x-gradient is the same correlation of the padded g with the flipped kernel
            nx._accum(correlate(np.pad(g, pads), flipped))

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
    msum = mflat.sum()
    if msum <= 0:
        raise ValueError("cross_entropy mask selects no positions")
    m = flat.max(axis=-1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(flat - m).sum(axis=-1))
    nll = lse - flat[np.arange(flat.shape[0]), tflat]
    data = (nll * mflat).sum() / msum
    nl, sl = grad_node(logits), logits.shape

    def backward(g):
        p = np.exp(flat - lse[:, None])
        p[np.arange(flat.shape[0]), tflat] -= 1.0
        p *= (mflat / msum)[:, None]
        nl._accum((g * p).reshape(sl))

    return Tensor._from_op(data, (logits,), backward, "cross_entropy")


def l1_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean absolute error against a constant target."""
    target = np.asarray(target, dtype=pred.data.dtype)
    if target.shape != pred.shape:
        raise ShapeError("l1_loss target must match prediction shape")
    diff = pred.data - target
    data = np.abs(diff).mean()
    n, npred = pred.size, grad_node(pred)

    def backward(g):
        npred._accum(g * np.sign(diff) / n)

    return Tensor._from_op(data, (pred,), backward, "l1_loss")


def binary_cross_entropy_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean sigmoid BCE against {0,1} targets, computed in log-space."""
    t = np.asarray(targets, dtype=logits.data.dtype)
    if t.shape != logits.shape:
        raise ShapeError("bce targets must match logits shape")
    z = logits.data
    # log(1 + exp(-|z|)) + max(z,0) - z*t, the standard stable form
    data = (np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))).mean()
    n, nl = logits.size, grad_node(logits)

    def backward(g):
        nl._accum(g * (_stable_sigmoid(z) - t) / n)

    return Tensor._from_op(data, (logits,), backward, "bce_logits")


# -- indexing helpers ----------------------------------------------------------


def embedding_lookup(table: Tensor, idx: np.ndarray) -> Tensor:
    """Row lookup: table [V, D], idx int [...] -> [..., D].

    Duplicate indices accumulate gradient (scatter-add).
    """
    idx = np.asarray(idx)
    data = table.data[idx]
    nt, st, dtype = grad_node(table), table.shape, table.dtype

    def backward(g):
        gt = np.zeros(st, dtype)
        np.add.at(gt, idx, g)
        nt._accum(gt)

    return Tensor._from_op(data, (table,), backward, "embedding_lookup")

