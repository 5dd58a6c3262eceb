"""Tensor core: graph construction, backward sweep, broadcasting, finiteness."""

import numpy as np
import pytest

from hirisk import workers
from hirisk.autograd import (
    ComputationTape,
    Node,
    NonFiniteError,
    ShapeError,
    Tensor,
    concat,
    join_blocks,
    matmul,
    no_grad,
    power,
    swapaxes,
    unbroadcast,
)
from hirisk.modules import Parameter


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


@pytest.mark.parametrize("op", ["add", "mul", "mean"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_0d_op_output_is_an_ndarray(op, dtype):
    """numpy gives 0-d arithmetic results as scalars; a Tensor still wraps an array."""
    a = Tensor(np.asarray(1.5, dtype=dtype), requires_grad=True)
    b = Tensor(np.asarray(2.0, dtype=dtype))
    out = {"add": lambda: a + b, "mul": lambda: a * b, "mean": lambda: a.mean()}[op]()
    assert type(out.data) is np.ndarray and out.data.shape == () and out.dtype == dtype


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
        power(x, -1.0)  # 1 / 0 = inf


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


def test_power_roundtrip_grad():
    x = Tensor(np.array([0.5, 1.0, 2.0]), requires_grad=True)
    y = power(power(x, 2.0), 0.5).sum()
    y.backward()
    np.testing.assert_allclose(x.grad, np.ones(3), atol=1e-12)


def test_tape_topological_order():
    x = Tensor(1.0, requires_grad=True)
    y = x * 2.0
    z = y + x
    tape = ComputationTape.trace(z)
    # the tape holds the leaf itself and the op outputs' data-free nodes
    assert tape.nodes[0] is x and tape.nodes[-1] is z._node
    assert isinstance(z._node, Node) and isinstance(y._node, Node)
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


@pytest.mark.parametrize("already_has_grad", [False, True])
def test_accum_rejects_a_mis_shaped_gradient(already_has_grad):
    # a (4,) gradient would broadcast into a (3, 4) slot under `+=`
    x = Tensor(np.ones((3, 4)), requires_grad=True)
    if already_has_grad:
        x.grad = np.zeros((3, 4))

    def bad_backward(g):
        x._accum(g.sum(axis=0))

    y = Tensor._from_op(x.data * 2.0, (x,), bad_backward, "bad")
    with pytest.raises(ShapeError, match=r"\(4,\).*\(3, 4\)"):
        y.sum().backward()


def test_first_gradient_is_a_private_copy():
    # add hands the same array to both operands; accumulating into one
    # must not change the other
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    (a + b).sum().backward()
    assert a.grad is not b.grad
    (a * 3.0).sum().backward()
    np.testing.assert_array_equal(a.grad, np.full(3, 4.0))
    np.testing.assert_array_equal(b.grad, np.ones(3))


def test_first_gradient_takes_the_tensor_dtype():
    x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    x._accum(np.full(3, 0.5))
    assert x.grad.dtype == np.float32


def test_a_second_backward_through_a_swept_graph_raises_and_adds_nothing():
    x = Tensor(3.0, requires_grad=True)
    u = x * 2.0
    z = u * u  # z = 4x^2, dz/dx = 8x = 24
    z.backward()
    assert u.grad is None and z.grad is None
    assert u._node._backward is None and z._node._backward is None
    assert x.grad.item() == 24.0
    # again from the same root
    with pytest.raises(RuntimeError, match="'mul'"):
        z.backward()
    # from a new root whose graph shares the swept node u
    with pytest.raises(RuntimeError, match="'mul'"):
        (u + x).backward()
    assert x.grad.item() == 24.0 and z._node.grad is None


def test_a_second_join_of_swept_blocks_raises_and_adds_nothing():
    x = Tensor(np.arange(3.0), requires_grad=True)
    blocks = [(x * float(i + 1)).sum() for i in range(2)]
    join_blocks(blocks).backward()
    np.testing.assert_array_equal(x.grad, np.full(3, 3.0))
    with pytest.raises(RuntimeError, match="'sum'"):
        join_blocks(blocks).backward()
    np.testing.assert_array_equal(x.grad, np.full(3, 3.0))


def _shared_pairs(leaves):
    return [(i, j) for i in range(len(leaves)) for j in range(i + 1, len(leaves))
            if np.shares_memory(leaves[i].grad, leaves[j].grad)]


def _x_plus_x():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    return [x], x + x


def _a_plus_b():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones((2, 3)), requires_grad=True)
    return [a, b], a + b


def _concat_x_x():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    y = Tensor(np.ones((1, 3)), requires_grad=True)
    return [x, y], concat([x, x, y], axis=0)


def _view_chain():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones((3, 2)), requires_grad=True)
    v = swapaxes(a.reshape(3, 2), 0, 1)  # [2, 3] view of a's layout
    return [a, b], v + swapaxes(b, 0, 1)


@pytest.mark.parametrize("build", [_x_plus_x, _a_plus_b, _concat_x_x, _view_chain])
def test_leaf_gradients_never_share_a_buffer(build):
    leaves, out = build()
    root_grad = np.full(out.shape, 2.0)
    out.backward(root_grad)
    assert _shared_pairs(leaves) == []
    before = [leaf.grad.copy() for leaf in leaves]
    # accumulating in place into one leaf leaves every other gradient, and
    # the caller's root gradient, as they were
    leaves[0].grad += 1.0
    np.testing.assert_array_equal(root_grad, np.full(out.shape, 2.0))
    for leaf, was in zip(leaves[1:], before[1:]):
        np.testing.assert_array_equal(leaf.grad, was)
    np.testing.assert_array_equal(leaves[0].grad, before[0] + 1.0)


def test_backward_never_writes_the_callers_gradient():
    # reshape hands its gradient on as a view, so x's first gradient is the
    # root's own buffer
    x = Tensor(np.ones(3), requires_grad=True)
    g = np.full(3, 2.0)
    x.reshape(1, 3).backward(g.reshape(1, 3))
    x.grad += 5.0
    x.reshape(1, 3).backward(g.reshape(1, 3))
    np.testing.assert_array_equal(g, np.full(3, 2.0))
    np.testing.assert_array_equal(x.grad, np.full(3, 9.0))


# -- no_grad --------------------------------------------------------------------


def test_no_grad_builds_no_graph_and_leaves_grads_alone():
    w = Parameter(np.arange(6.0).reshape(2, 3))
    w.grad = np.full((2, 3), 0.5)
    x = Tensor(np.ones((4, 2)))
    with no_grad():
        h = matmul(x, w)
        y = power(h * 0.1, 2.0).sum()
    for t in (h, y):
        assert not t.requires_grad
        assert t._node is t and t._parents == () and t._backward is None
    assert np.array_equal(w.grad, np.full((2, 3), 0.5))
    # the same ops record a graph again outside the block
    z = matmul(x, w).sum()
    assert z.requires_grad and z._node._parents and z._node._backward is not None


def test_no_grad_restores_the_flag_after_nesting_and_errors():
    w = Parameter(np.ones(3))
    with no_grad():
        with no_grad():
            assert not (w * 2.0).requires_grad
        # leaving the inner block keeps the outer one in force
        assert not (w * 2.0).requires_grad
    assert (w * 2.0).requires_grad
    with pytest.raises(NonFiniteError):
        with no_grad(), np.errstate(divide="ignore"):
            power(w * 0.0, -1.0)
    assert (w * 2.0).requires_grad

    @no_grad()
    def scaled():
        return w * 2.0

    assert not scaled().requires_grad
    assert (w * 2.0).requires_grad


@pytest.mark.parametrize("n_workers", [1, 2])
def test_join_blocks_sums_losses_and_gradients_in_block_order(monkeypatch, n_workers):
    """1e8 + -1e8 + 1 is 1 in block order and 0 in reverse, at float32."""
    monkeypatch.setattr(workers, "worker_count", lambda: n_workers)
    x = Parameter(np.ones(3, dtype=np.float32))
    scales = [np.float32(1e8), np.float32(-1e8), np.float32(1.0)]
    loss = join_blocks([(x * Tensor(c)).sum() for c in scales])
    assert loss.data.dtype == np.float32 and loss.item() == 3.0
    loss.backward()
    assert x.grad.tolist() == [1.0, 1.0, 1.0]
    assert workers.grad_sink() is None

