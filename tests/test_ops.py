"""Kernel correctness: frozen oracles, slow reference implementations, and
finite-difference checks for every backward closure."""

import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from hirisk import ops
from hirisk.autograd import NonFiniteError, ShapeError, Tensor, concat, no_grad, swapaxes
from hirisk.gradcheck import finite_difference_check
from hirisk.lm import prefix_causal_mask
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


@pytest.mark.parametrize("op", [ops.relu, ops.gelu, ops.sigmoid, ops.softmax_rows],
                         ids=lambda op: op.__name__)
def test_activations_keep_float32(op):
    x = Tensor(np.linspace(-3.0, 3.0, 12, dtype=np.float32).reshape(3, 4), requires_grad=True)
    y = op(x)
    assert y.dtype == np.float32
    (y * Tensor(np.ones((3, 4), dtype=np.float32))).sum().backward()
    assert x.grad.dtype == np.float32


def test_relu_gradient_is_its_input_sign_and_no_grad_allocates_only_its_output():
    x = Tensor(np.array([-2.0, -0.0, 0.0, 1e-30, 3.0], dtype=np.float32), requires_grad=True)
    ops.relu(x).backward(np.full(5, 2.0, dtype=np.float32))
    assert x.grad.tobytes() == (2.0 * (x.data > 0.0)).astype(np.float32).tobytes()
    big = Tensor(rng("relu").normal(size=(64, 256)).astype(np.float32))
    with no_grad():
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = ops.relu(big)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    # the output plus the finite check's transient boolean array (a quarter
    # of the float32 output); a boolean mask would add another quarter
    assert peak < 1.4 * out.data.nbytes


def test_gelu_reference_points():
    # gelu(0)=0, gelu is odd-symmetric around 0 in the sense x*cdf(x);
    # gelu(large) ~ x, gelu(-large) ~ 0
    x = Tensor(np.array([0.0, 10.0, -10.0]))
    y = ops.gelu(x).data
    assert y[0] == 0.0
    assert y[1] == pytest.approx(10.0, abs=1e-12)
    assert y[2] == pytest.approx(0.0, abs=1e-12)


def test_gelu_float32_reference_points_are_exact():
    y = ops.gelu(Tensor(np.array([0.0, 10.0, -10.0], dtype=np.float32))).data
    assert y.dtype == np.float32
    assert y.tolist() == [0.0, 10.0, 0.0]


def _f32_stride(lo: float, hi: float, stride: int = 1087) -> np.ndarray:
    # every `stride`-th float32 bit pattern in [lo, hi); an odd stride
    # reaches every mantissa residue
    a, b = (int(np.float32(v).view(np.uint32)) for v in (lo, hi))
    return np.arange(a, b, stride, dtype=np.uint32).view(np.float32)


def test_erf32_is_within_5e_7_of_double_erf():
    # a sample of [0, 6); tests/erf32_sweep.py checks all 1.09e9 of them
    from scipy.special import erf

    x = _f32_stride(0.0, 6.0)
    assert x.size > 900_000
    err = np.abs(ops._erf32(x.copy()).astype(np.float64) - erf(x.astype(np.float64)))
    assert err.max() <= 5e-7


def test_erf32_is_odd_bit_for_bit_and_exactly_one_past_the_clip():
    x = _f32_stride(0.0, 6.0)
    pos, neg = ops._erf32(x.copy()), ops._erf32(-x)
    np.testing.assert_array_equal((-pos).view(np.uint32), neg.view(np.uint32))
    far = np.array([4.0, 4.5, 10.0, 3e38, np.inf], dtype=np.float32)
    assert ops._erf32(far.copy()).tolist() == [1.0] * 5
    assert ops._erf32(-far).tolist() == [-1.0] * 5
    assert np.isnan(ops._erf32(np.array([np.nan], dtype=np.float32))).all()


def test_gelu_float32_chunks_match_each_piece_alone():
    n = ops.ERF_CHUNK
    x = (rng("gchunk").normal(size=2 * n + 37) * 3.0).astype(np.float32)
    whole = ops.gelu(Tensor(x)).data
    pieces = [ops.gelu(Tensor(x[lo : lo + n])).data for lo in range(0, x.size, n)]
    np.testing.assert_array_equal(whole, np.concatenate(pieces))


def test_gelu_float32_view_matches_its_copy_and_leaves_input_unwritten():
    x = (rng("gview").normal(size=(6, 5, 4)) * 3.0).astype(np.float32)
    before = x.copy()
    outs = []
    for a in (x.swapaxes(0, 2), np.ascontiguousarray(x.swapaxes(0, 2))):
        t = Tensor(a, requires_grad=True)
        y = ops.gelu(t)
        (y * Tensor(np.ones(y.shape, dtype=np.float32))).sum().backward()
        outs.append((y.data, t.grad))
    for got, want in zip(*outs):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(x, before)


def test_gelu_float64_is_scipy_erf_bit_for_bit():
    # the path `gradcheck` and the finite-difference tests run on; x / sqrt(2)
    # rounds differently from x * (1 / sqrt(2)) on about 13% of inputs
    from scipy.special import erf

    x = rng("g64").normal(size=(40, 50)) * 3.0
    want = x * 0.5 * (1.0 + erf(x * (1.0 / math.sqrt(2.0))))
    np.testing.assert_array_equal(ops.gelu(Tensor(x)).data, want)


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


def test_conv2d_graph_keeps_no_im2col_matrix():
    r = rng("c2dmem")
    x = Tensor(r.normal(size=(4, 16, 16, 8)).astype(np.float32), requires_grad=True)
    w = Tensor(r.normal(size=(3, 3, 8, 8)).astype(np.float32), requires_grad=True)

    def kept_bytes():
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = ops.conv2d(x, w, padding=1)
            return tracemalloc.get_traced_memory()[0] - before, out
        finally:
            tracemalloc.stop()

    # the output only: the closure keeps the leaf x itself, no padded copy of
    # it and no 9x-input im2col matrix
    kept, out = kept_bytes()
    assert out._node._backward is not None
    assert kept < 1.5 * x.data.nbytes
    with no_grad():
        kept, out = kept_bytes()
    assert out._node is out and out._backward is None
    assert kept < 1.5 * x.data.nbytes


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


def test_depthwise_conv3d_float32_matches_loop_reference():
    r = rng("dw3f")
    x = r.normal(size=(2, 3, 4, 5, 3)).astype(np.float32)
    w = r.normal(size=(3, 3, 3, 3)).astype(np.float32)
    got = ops.depthwise_conv3d(Tensor(x), Tensor(w))
    assert got.dtype == np.float32
    want = dwconv3d_loops(x.astype(np.float64), w.astype(np.float64))
    np.testing.assert_allclose(got.data, want, rtol=1e-5, atol=1e-5)
    # and its gradients agree with the float64 ones
    probe = r.normal(size=x.shape)
    grads = {}
    for dtype in (np.float32, np.float64):
        xt = Tensor(x.astype(dtype), requires_grad=True)
        wt = Tensor(w.astype(dtype), requires_grad=True)
        (ops.depthwise_conv3d(xt, wt) * Tensor(probe.astype(dtype))).sum().backward()
        assert xt.grad.dtype == wt.grad.dtype == dtype
        grads[dtype] = (xt.grad, wt.grad)
    for g32, g64 in zip(grads[np.float32], grads[np.float64]):
        np.testing.assert_allclose(g32, g64, rtol=1e-4, atol=1e-4)


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


def test_grad_attention():
    r = rng("g_attn")
    probe = Tensor(r.normal(size=(2, 3, 4)))
    mask = np.triu(np.full((3, 5), -1e9), 3)
    fd(lambda q, k, v: (ops.attention(q, k, v, 2, mask) * probe).sum(),
       r.normal(size=(2, 3, 4)), r.normal(size=(2, 5, 4)), r.normal(size=(2, 5, 4)))


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


def test_grad_matmul_and_friends():
    r = rng("g13")
    fd(lambda a, b: (a @ b).sum(), r.normal(size=(3, 4)), r.normal(size=(4, 2)))
    fd(lambda a: a.reshape(6).sum(), r.normal(size=(2, 3)))
    fd(lambda a: a.mean(axis=1).sum(), r.normal(size=(3, 4)))


# -- linear ----------------------------------------------------------------------


@pytest.mark.parametrize("x_shape", [(5, 4), (2, 3, 2, 4)], ids=["2d", "4d"])
@pytest.mark.parametrize("bias", [True, False], ids=["bias", "no_bias"])
def test_grad_linear(x_shape, bias):
    r = rng(f"lin{len(x_shape)}{bias}")
    probe = Tensor(r.normal(size=x_shape[:-1] + (3,)))
    arrays = [r.normal(size=x_shape), r.normal(size=(4, 3))] + ([r.normal(size=3)] if bias else [])
    fd(lambda x, w, *b: (ops.linear(x, w, *b) * probe).sum(), *arrays)


def test_linear_float32_matches_matmul_plus_bias():
    r = rng("lin32")
    x = r.normal(size=(4, 6, 8)).astype(np.float32)
    w = r.normal(size=(8, 5)).astype(np.float32)
    b = r.normal(size=5).astype(np.float32)
    got = ops.linear(Tensor(x), Tensor(w), Tensor(b))
    assert got.dtype == np.float32 and got.shape == (4, 6, 5)
    np.testing.assert_allclose(got.data, x @ w + b, rtol=1e-5, atol=1e-6)


def test_linear_module_is_one_tape_node():
    from hirisk.modules import Linear

    layer = Linear(8, 5, rng("lin_mod"))
    x = Tensor(rng("lin_x").normal(size=(2, 3, 8)).astype(np.float32), requires_grad=True)
    y = layer(x)
    assert y._node._op == "linear"
    # leaves are their own nodes
    assert set(map(id, y._node._parents)) == {id(x), id(layer.weight), id(layer.bias)}
    tape = y.sum().backward()
    assert [n._op for n in tape.nodes].count("linear") == 1
    assert len(tape) == 5  # x, weight, bias, linear, sum
    assert layer.weight.grad.shape == (8, 5) and x.grad.shape == (2, 3, 8)


def test_linear_rejects_mismatched_shapes():
    with pytest.raises(ShapeError):
        ops.linear(Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 5))))
    with pytest.raises(ShapeError):
        ops.linear(Tensor(np.zeros((2, 4))), Tensor(np.zeros((4, 5))), Tensor(np.zeros(4)))


# -- fused attention -----------------------------------------------------------


def attention_chain(q, k, v, heads, mask=None):
    """The chain of primitive tape ops that `ops.attention` replaces."""
    b, tq, d = q.shape
    tk, dh = k.shape[1], d // heads
    q4 = swapaxes(q.reshape(b, tq, heads, dh), 1, 2)
    k4 = swapaxes(k.reshape(b, tk, heads, dh), 1, 2)
    v4 = swapaxes(v.reshape(b, tk, heads, dh), 1, 2)
    scores = (q4 @ swapaxes(k4, -1, -2)) * (1.0 / math.sqrt(dh))
    if mask is not None:
        scores = scores + Tensor(mask.astype(scores.dtype))
    out = ops.softmax_rows(scores) @ v4
    return swapaxes(out, 1, 2).reshape(b, tq, d)


@pytest.mark.parametrize("heads,tq,tk,mask", [
    (2, 6, 6, "prefix_causal"),
    (2, 6, 6, None),
    (4, 3, 7, None),  # cross-attention
    (2, 3, 7, "rectangular"),
    (1, 6, 6, "prefix_causal"),
    (1, 4, 9, None),
])
def test_attention_matches_the_primitive_chain_bit_for_bit(heads, tq, tk, mask):
    r = rng(f"attn{heads}{tq}{tk}{mask}")
    if mask == "prefix_causal":
        mask = prefix_causal_mask(2, tq)
    elif mask == "rectangular":
        mask = np.triu(np.full((tq, tk), -1e9, dtype=np.float32), 2)
    arrays = [r.normal(size=(3, t, 8)).astype(np.float32) for t in (tq, tk, tk)]
    probe = Tensor(r.normal(size=(3, tq, 8)).astype(np.float32))
    results = []
    for fn in (ops.attention, attention_chain):
        q, k, v = (Tensor(a, requires_grad=True) for a in arrays)
        out = fn(q, k, v, heads, mask)
        if fn is ops.attention:
            assert out._node._op == "attention" and out._node._parents == (q, k, v)
        (out * probe).sum().backward()
        results.append([out.data, q.grad, k.grad, v.grad])
    assert results[0][0].shape == (3, tq, 8)
    for got, want in zip(*results):
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("keys", ["random", "one_negative"])
def test_attention_overflow_names_attention(keys):
    r = rng("attn_inf")
    if keys == "random":
        q, k = (Tensor((r.normal(size=(1, t, 4)) * 1e20).astype(np.float32)) for t in (2, 3))
    else:
        # one score per row overflows to -inf and the rest are 0: the softmax
        # and the output stay finite, so only the check on the scores sees it
        q = Tensor(np.full((1, 2, 4), 1e20, dtype=np.float32))
        k = Tensor(np.stack([np.full(4, -1e20), np.zeros(4), np.zeros(4)])[None].astype(np.float32))
    v = Tensor(r.normal(size=(1, 3, 4)).astype(np.float32))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError, match="attention"):
            ops.attention(q, k, v, 2)


@pytest.mark.parametrize("q,kv,heads", [
    ((2, 3, 4), [(2, 5, 4), (2, 4, 4)], 2),  # k and v lengths differ
    ((2, 3, 4), [(2, 5, 6), (2, 5, 6)], 2),  # widths differ
    ((2, 3, 6), [(2, 5, 6), (2, 5, 6)], 4),  # width not divisible by heads
])
def test_attention_rejects_mismatched_shapes(q, kv, heads):
    with pytest.raises(ShapeError):
        ops.attention(Tensor(np.zeros(q)), *(Tensor(np.zeros(s)) for s in kv), heads)


# -- what the graph keeps --------------------------------------------------------


def _owner(a: np.ndarray) -> np.ndarray:
    """The array that owns `a`'s memory."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _leaf(r, *shape):
    return Tensor(r.normal(size=shape).astype(np.float32), requires_grad=True)


def _conv_then_relu(r):
    x, w = _leaf(r, 2, 6, 6, 3), _leaf(r, 3, 3, 3, 4)
    h = ops.conv2d(x, w, padding=1)
    return [x, w], h, ops.relu(h)


def _residual_add(r):
    x, w, gamma, beta = _leaf(r, 2, 5, 8), _leaf(r, 8, 8), _leaf(r, 8), _leaf(r, 8)
    s = x + ops.linear(x, w)
    return [x, w, gamma, beta], s, ops.layer_norm(s, gamma, beta) + s


def _concat_then_scale(r):
    a, b = _leaf(r, 2, 3, 4), _leaf(r, 2, 5, 4)
    c = concat([a, b], axis=1)
    return [a, b], c, ops.gelu(c * 2.0)


@pytest.mark.parametrize("build", [_conv_then_relu, _residual_add, _concat_then_scale])
def test_an_output_no_closure_reads_is_freed_when_dropped(build):
    grads = []
    for drop in (True, False):
        leaves, mid, out = build(rng("retain" + build.__name__))
        ref = weakref.ref(_owner(mid.data))
        if drop:
            del mid
            assert ref() is None
        probe = rng("retain_probe").normal(size=out.shape).astype(np.float32)
        (out * Tensor(probe)).sum().backward()
        grads.append([leaf.grad for leaf in leaves])
    # the same gradients as a run that kept the output alive
    for got, want in zip(*grads):
        np.testing.assert_array_equal(got, want)


def test_the_sweep_frees_linear_input_and_relu_output_once_their_closures_run():
    r = rng("retain_kept")
    x, w = _leaf(r, 4, 6), _leaf(r, 6, 5)
    h = ops.gelu(x)  # linear's weight gradient reads its input
    y = ops.relu(ops.linear(h, w))  # relu's backward reads its output
    refs = [weakref.ref(_owner(h.data)), weakref.ref(_owner(y.data))]
    loss = (y * 2.0).sum()
    del h, y
    assert all(ref() is not None for ref in refs)
    loss.backward()
    # the root is still alive, its graph's saved arrays are not
    assert all(ref() is None for ref in refs) and w.grad is not None


def test_gelu_keeps_one_array_and_frees_its_input_when_dropped():
    r = rng("gelu_kept")
    x, w = _leaf(r, 4, 6), _leaf(r, 6, 5)
    h = ops.linear(x, w)  # linear's backward reads neither its output nor gelu's
    y = ops.gelu(h)
    ref = weakref.ref(_owner(h.data))
    del h
    assert ref() is None
    saved = [c.cell_contents for c in y._node._backward.__closure__
             if isinstance(c.cell_contents, np.ndarray)]
    assert [a.shape for a in saved] == [y.shape]


def test_gelu_under_no_grad_computes_no_derivative():
    x = Tensor(rng("gelu_ng").normal(size=(1024, 1024)).astype(np.float32), requires_grad=True)
    with no_grad():
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = ops.gelu(x)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    # the CDF and the output, plus the finite check's boolean array (a
    # quarter); the derivative would add a third full array
    assert peak < 2.6 * out.data.nbytes


def _gelu_grad_from_x_and_cdf(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """GELU's x-gradient as a closure that keeps x and the normal CDF built it."""
    cdf = x * ops._INV_SQRT2
    if cdf.dtype == np.float32:
        cdf = ops._erf32(cdf)
    else:
        from scipy.special import erf

        erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    d = -0.5 * x
    d *= x
    np.exp(d, out=d)
    d *= ops._INV_SQRT2PI
    d *= x
    d += cdf
    d *= g
    return d


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_gradient_is_the_two_array_backward_bit_for_bit(dtype):
    r = rng("gelu_bits")
    x = (r.normal(size=(30, 40)) * 3.0).astype(dtype)
    g = r.normal(size=x.shape).astype(dtype)
    t = Tensor(x.copy(), requires_grad=True)
    (ops.gelu(t) * Tensor(g)).sum().backward()
    want = _gelu_grad_from_x_and_cdf(x, g)
    assert t.grad.dtype == dtype
    np.testing.assert_array_equal(t.grad.view(np.uint8), want.view(np.uint8))
