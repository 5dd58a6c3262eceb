"""Tensor core: graph construction, backward sweep, broadcasting, finiteness."""

import numpy as np
import pytest

from hirisk.autograd import (
    ComputationTape,
    NonFiniteError,
    ShapeError,
    Tensor,
    concat,
    exp,
    log,
    matmul,
    unbroadcast,
)


def test_matmul_known_value():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[0.0], [1.0]])
    out = matmul(a, b)
    assert out.data.tolist() == [[2.0], [4.0]]


def test_add_mul_scalar_graph():
    x = Tensor(3.0, requires_grad=True)
    y = Tensor(4.0, requires_grad=True)
    z = x * y + x  # dz/dx = y + 1, dz/dy = x
    z.backward()
    assert z.item() == 15.0
    assert x.grad.item() == 5.0
    assert y.grad.item() == 3.0


def test_fanout_accumulates():
    # z = x*x + x*x uses x three... four times through two product nodes
    x = Tensor(2.0, requires_grad=True)
    a = x * x
    b = x * x
    z = a + b
    z.backward()
    assert z.item() == 8.0
    assert x.grad.item() == 8.0  # d/dx 2x^2 = 4x


def test_diamond_graph_single_visit():
    # x feeds two paths that rejoin; each node appears on the tape once,
    # so a doubled gradient would reveal a repeated backward call
    x = Tensor(1.5, requires_grad=True)
    u = x * 2.0
    z = u * u  # z = 4x^2, dz/dx = 8x
    tape = z.backward()
    assert x.grad.item() == pytest.approx(8.0 * 1.5)
    ids = [id(n) for n in tape.nodes]
    assert len(ids) == len(set(ids))


def test_broadcast_add_unbroadcasts_grad():
    a = Tensor(np.zeros((3, 4)), requires_grad=True)
    b = Tensor(np.zeros(4), requires_grad=True)
    out = (a + b).sum()
    out.backward()
    assert a.grad.shape == (3, 4)
    assert b.grad.shape == (4,)
    np.testing.assert_array_equal(b.grad, np.full(4, 3.0))


def test_unbroadcast_keepdim_axis():
    g = np.ones((2, 3, 4))
    assert unbroadcast(g, (3, 4)).shape == (3, 4)
    assert unbroadcast(g, (1, 3, 4)).shape == (1, 3, 4)
    assert unbroadcast(g, (2, 1, 4)).shape == (2, 1, 4)
    np.testing.assert_array_equal(unbroadcast(g, (2, 1, 4)), np.full((2, 1, 4), 3.0))


def test_matmul_batched_grad_shapes():
    a = Tensor(np.random.default_rng(0).normal(size=(5, 3, 4)), requires_grad=True)
    b = Tensor(np.random.default_rng(1).normal(size=(4, 2)), requires_grad=True)
    out = matmul(a, b).sum()
    out.backward()
    assert a.grad.shape == (5, 3, 4)
    assert b.grad.shape == (4, 2)


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_nonfinite_forward_raises():
    x = Tensor(np.array([0.0]), requires_grad=True)
    with pytest.raises(NonFiniteError), np.errstate(divide="ignore"):
        log(x)  # log(0) = -inf


def test_nonfinite_leaf_raises():
    with pytest.raises(NonFiniteError):
        Tensor(np.array([1.0, np.nan]))


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeError):
        (x * 2.0).backward()


def test_getitem_slice_grad():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    y = x[0, :].sum()
    y.backward()
    np.testing.assert_array_equal(x.grad, [[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])


def test_getitem_fancy_duplicate_rows_accumulate():
    x = Tensor(np.ones((3, 2)), requires_grad=True)
    idx = np.array([0, 0, 2])
    y = x[idx].sum()
    y.backward()
    np.testing.assert_array_equal(x.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])


def test_concat_splits_grad():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.ones((2, 3)), requires_grad=True)
    out = concat([a, b], axis=1)
    assert out.shape == (2, 5)
    (out * 2.0).sum().backward()
    np.testing.assert_array_equal(a.grad, np.full((2, 2), 2.0))
    np.testing.assert_array_equal(b.grad, np.full((2, 3), 2.0))


def test_mean_axis_grad():
    x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    x.mean(axis=0).sum().backward()
    np.testing.assert_allclose(x.grad, np.full((3, 4), 1.0 / 3.0))


def test_exp_log_roundtrip_grad():
    x = Tensor(np.array([0.5, 1.0, 2.0]), requires_grad=True)
    y = log(exp(x)).sum()
    y.backward()
    np.testing.assert_allclose(x.grad, np.ones(3), atol=1e-12)


def test_detach_blocks_gradient():
    x = Tensor(2.0, requires_grad=True)
    y = x * 3.0
    z = y.detach() * 5.0
    assert not z.requires_grad
    w = x * 1.0 + z
    w.backward()
    assert x.grad.item() == 1.0


def test_tape_topological_order():
    x = Tensor(1.0, requires_grad=True)
    y = x * 2.0
    z = y + x
    tape = ComputationTape.trace(z)
    pos = {id(n): i for i, n in enumerate(tape.nodes)}
    for node in tape.nodes:
        for parent in node._parents:
            assert pos[id(parent)] < pos[id(node)]


def test_deep_chain_no_recursion_limit():
    x = Tensor(1.0, requires_grad=True)
    y = x
    for _ in range(5000):
        y = y * 1.0
    y.backward()
    assert x.grad.item() == 1.0


def test_double_backward_call_is_fresh_accumulation():
    x = Tensor(3.0, requires_grad=True)
    (x * x).backward()
    g1 = x.grad.item()
    x.zero_grad()
    (x * x).backward()
    assert x.grad.item() == g1 == 6.0
