"""Kernel correctness: frozen oracles, slow reference implementations, and
finite-difference checks for every backward closure."""

import warnings

import numpy as np
import pytest

from hirisk import ops
from hirisk.autograd import Tensor
from hirisk.gradcheck import finite_difference_check
from hirisk.rng import named_rng

# softmax([1, 2, 3]) computed independently at 50-digit precision (mpmath),
# rounded to double
SOFTMAX_123 = np.array(
    [0.090030573170380458, 0.24472847105479765, 0.66524095577482189]
)


def rng(name):
    return named_rng(7, "test/" + name)


# -- forward oracles -----------------------------------------------------------


def test_softmax_frozen_value():
    out = ops.softmax_rows(Tensor(np.array([1.0, 2.0, 3.0])))
    np.testing.assert_allclose(out.data, SOFTMAX_123, atol=1e-15)


def test_softmax_rows_sum_to_one():
    x = Tensor(rng("sm").normal(size=(4, 6, 9)) * 10.0)
    p = ops.softmax_rows(x)
    np.testing.assert_allclose(p.data.sum(axis=-1), np.ones((4, 6)), atol=1e-12)


def test_softmax_shift_invariance():
    x = rng("sm2").normal(size=(3, 5))
    a = ops.softmax_rows(Tensor(x)).data
    b = ops.softmax_rows(Tensor(x + 1000.0)).data
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_gelu_reference_points():
    # gelu(0)=0, gelu is odd-symmetric around 0 in the sense x*cdf(x);
    # gelu(large) ~ x, gelu(-large) ~ 0
    x = Tensor(np.array([0.0, 10.0, -10.0]))
    y = ops.gelu(x).data
    assert y[0] == 0.0
    assert y[1] == pytest.approx(10.0, abs=1e-12)
    assert y[2] == pytest.approx(0.0, abs=1e-12)


def test_layer_norm_output_stats():
    x = Tensor(rng("ln").normal(size=(6, 32)) * 3.0 + 1.0)
    g = Tensor(np.ones(32))
    b = Tensor(np.zeros(32))
    y = ops.layer_norm(x, g, b).data
    np.testing.assert_allclose(y.mean(axis=-1), np.zeros(6), atol=1e-12)
    np.testing.assert_allclose(y.std(axis=-1), np.ones(6), atol=1e-3)


def test_cross_entropy_uniform_logits():
    v = 7
    logits = Tensor(np.zeros((3, v)))
    loss = ops.cross_entropy_logits(logits, np.array([0, 3, 6]))
    assert loss.item() == pytest.approx(np.log(v), abs=1e-12)


def test_cross_entropy_mask_drops_positions():
    logits = np.zeros((2, 2, 4))
    logits[0, 0, 1] = 50.0  # near-certain correct prediction at kept position
    t = np.array([[1, 0], [0, 0]])
    m = np.array([[1.0, 0.0], [0.0, 0.0]])
    loss = ops.cross_entropy_logits(Tensor(logits), t, m)
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_l1_loss_value():
    pred = Tensor(np.array([0.0, 1.0, 2.0]))
    loss = ops.l1_loss(pred, np.array([1.0, 1.0, 0.0]))
    assert loss.item() == pytest.approx(1.0)


def test_bce_logits_matches_naive():
    z = rng("bce").normal(size=(5, 2))
    t = (rng("bce_t").random((5, 2)) > 0.5).astype(float)
    loss = ops.binary_cross_entropy_logits(Tensor(z), t)
    p = 1.0 / (1.0 + np.exp(-z))
    naive = -(t * np.log(p) + (1 - t) * np.log(1 - p)).mean()
    assert loss.item() == pytest.approx(naive, rel=1e-12)


def test_bce_backward_is_stable_at_extreme_logits():
    z = Tensor(np.array([-1e4, 0.0, 1e4], dtype=np.float32), requires_grad=True)
    t = np.array([1.0, 1.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ops.binary_cross_entropy_logits(z, t).backward()
    # (sigmoid(z) - t) / n with sigmoid(z) = [0, 0.5, 1]
    np.testing.assert_allclose(z.grad, (np.array([0.0, 0.5, 1.0]) - t) / 3, rtol=1e-6)


# -- convolution oracles -------------------------------------------------------


def conv2d_loops(x, w, b, stride, padding):
    """Direct nested-loop 2D convolution used as a reference oracle."""
    bsz, h, wd, cin = x.shape
    kh, kw, _, cout = w.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((bsz, ho, wo, cout))
    for n in range(bsz):
        for i in range(ho):
            for j in range(wo):
                patch = xp[n, i * stride : i * stride + kh, j * stride : j * stride + kw, :]
                for c in range(cout):
                    out[n, i, j, c] = (patch * w[:, :, :, c]).sum()
    if b is not None:
        out += b
    return out


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
def test_conv2d_matches_loop_reference(stride, padding):
    r = rng(f"c2d{stride}{padding}")
    x = r.normal(size=(2, 7, 8, 3))
    w = r.normal(size=(3, 3, 3, 4))
    b = r.normal(size=4)
    got = ops.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
    want = conv2d_loops(x, w, b, stride, padding)
    np.testing.assert_allclose(got.data, want, atol=1e-12)


def dwconv3d_loops(x, w):
    """Triple-loop depthwise 3D convolution reference, same padding."""
    bsz, t, h, wd, c = x.shape
    kt, kh, kw, _ = w.shape
    pt, ph, pw = kt // 2, kh // 2, kw // 2
    xp = np.pad(x, ((0, 0), (pt, pt), (ph, ph), (pw, pw), (0, 0)))
    out = np.zeros_like(x)
    for n in range(bsz):
        for ti in range(t):
            for i in range(h):
                for j in range(wd):
                    for ch in range(c):
                        acc = 0.0
                        for dt in range(kt):
                            for di in range(kh):
                                for dj in range(kw):
                                    acc += xp[n, ti + dt, i + di, j + dj, ch] * w[dt, di, dj, ch]
                        out[n, ti, i, j, ch] = acc
    return out


def test_depthwise_conv3d_matches_loop_reference():
    r = rng("dw3")
    x = r.normal(size=(2, 3, 4, 5, 2))
    w = r.normal(size=(3, 3, 3, 2))
    got = ops.depthwise_conv3d(Tensor(x), Tensor(w))
    np.testing.assert_allclose(got.data, dwconv3d_loops(x, w), atol=1e-12)


def test_depthwise_conv3d_rejects_even_kernel():
    from hirisk.autograd import ShapeError

    with pytest.raises(ShapeError):
        ops.depthwise_conv3d(Tensor(np.zeros((1, 2, 2, 2, 1))), Tensor(np.zeros((2, 3, 3, 1))))


def test_depthwise_identity_kernel():
    # a one-hot center tap reproduces the input exactly
    x = rng("dwid").normal(size=(1, 3, 5, 5, 4))
    w = np.zeros((3, 3, 3, 4))
    w[1, 1, 1, :] = 1.0
    out = ops.depthwise_conv3d(Tensor(x), Tensor(w))
    np.testing.assert_array_equal(out.data, x)


# -- backward: finite differences for every kernel ----------------------------


def fd(fn, *arrays, tol=1e-4):
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    return finite_difference_check(fn, tensors, rel_tol=tol)


def test_grad_softmax():
    w = rng("g1").normal(size=(3, 4))
    fd(lambda x: (ops.softmax_rows(x) * Tensor(w)).sum(), rng("g1b").normal(size=(3, 4)))


def test_grad_gelu():
    fd(lambda x: ops.gelu(x).sum(), rng("g2").normal(size=(11,)))


def test_grad_sigmoid_tanh_relu():
    v = rng("g3").normal(size=(9,))
    fd(lambda x: ops.sigmoid(x).sum(), v)
    fd(lambda x: ops.relu(x).sum(), v + 0.1)  # keep away from the kink


def test_grad_layer_norm_all_inputs():
    r = rng("g4")
    probe = Tensor(r.normal(size=(4, 6)))
    fd(
        lambda x, g, b: (ops.layer_norm(x, g, b) * probe).sum(),
        r.normal(size=(4, 6)),
        r.normal(size=6),
        r.normal(size=6),
    )


def test_grad_conv2d_all_inputs():
    r = rng("g5")
    probe = r.normal(size=(2, 3, 3, 4))
    fd(
        lambda x, w, b: (ops.conv2d(x, w, b, stride=2, padding=1) * Tensor(probe)).sum(),
        r.normal(size=(2, 5, 5, 3)),
        r.normal(size=(3, 3, 3, 4)),
        r.normal(size=4),
    )


def test_grad_depthwise_conv3d():
    r = rng("g6")
    probe = r.normal(size=(1, 3, 4, 4, 2))
    fd(
        lambda x, w: (ops.depthwise_conv3d(x, w) * Tensor(probe)).sum(),
        r.normal(size=(1, 3, 4, 4, 2)),
        r.normal(size=(3, 3, 3, 2)),
    )


def test_grad_cross_entropy():
    r = rng("g8")
    t = np.array([[1, 2], [0, 3]])
    m = np.array([[1.0, 1.0], [1.0, 0.0]])
    fd(lambda x: ops.cross_entropy_logits(x, t, m), r.normal(size=(2, 2, 4)))


def test_grad_l1():
    r = rng("g9")
    t = r.normal(size=(3, 4))
    fd(lambda x: ops.l1_loss(x, t), r.normal(size=(3, 4)) + 0.05)


def test_grad_bce():
    r = rng("g10")
    t = (r.random((4, 3)) > 0.4).astype(float)
    fd(lambda x: ops.binary_cross_entropy_logits(x, t), r.normal(size=(4, 3)))


def test_grad_embedding_lookup():
    r = rng("g11")
    idx = np.array([[0, 2, 2], [1, 0, 3]])
    probe = r.normal(size=(2, 3, 5))
    fd(lambda w: (ops.embedding_lookup(w, idx) * Tensor(probe)).sum(), r.normal(size=(4, 5)))


def test_grad_masked_mean_rows():
    r = rng("g12")
    m = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    probe = r.normal(size=(2, 4))
    fd(lambda x: (ops.masked_mean_rows(x, m) * Tensor(probe)).sum(), r.normal(size=(2, 3, 4)))


def test_grad_matmul_and_friends():
    r = rng("g13")
    fd(lambda a, b: (a @ b).sum(), r.normal(size=(3, 4)), r.normal(size=(4, 2)))
    fd(lambda a: a.transpose().sum(), r.normal(size=(2, 5)))
    fd(lambda a: a.reshape(6).sum(), r.normal(size=(2, 3)))
    fd(lambda a: a.mean(axis=1).sum(), r.normal(size=(3, 4)))
