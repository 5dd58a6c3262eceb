"""Optimizer and schedule behavior."""

import numpy as np
import pytest

from hirisk.autograd import Tensor
from hirisk.modules import Linear, Module, Parameter
from hirisk.optim import AdamW, cosine_lr
from hirisk.rng import named_rng


def test_adamw_converges_on_quadratic():
    p = Parameter(np.array([5.0, -3.0]))
    opt = AdamW({"p": p}, lr=0.1, weight_decay=0.0)
    for _ in range(300):
        opt.zero_grad()
        ((p * p).sum()).backward()
        opt.step()
    assert np.abs(p.data).max() < 1e-3


def test_adamw_skips_param_without_grad():
    p = Parameter(np.array([1.0]))
    q = Parameter(np.array([2.0]))
    opt = AdamW({"p": p, "q": q}, lr=0.5, weight_decay=0.0)
    opt.zero_grad()
    (p * p).sum().backward()  # q never touched
    opt.step()
    assert q.data[0] == 2.0
    assert p.data[0] != 1.0


def test_adamw_decoupled_decay_shrinks_without_grad_signal():
    # zero gradient, nonzero decay: the value shrinks by lr*wd per step exactly
    p = Parameter(np.array([1.0]))
    opt = AdamW({"p": p}, lr=0.1, weight_decay=0.5)
    opt.zero_grad()
    (p * Tensor(np.array([0.0]))).sum().backward()
    opt.step()
    # decay applied first: 1 - 0.1*0.5 = 0.95; grad term is 0
    assert p.data[0] == pytest.approx(0.95)


def test_adamw_group_lr_scale():
    a = Parameter(np.array([1.0]))
    b = Parameter(np.array([1.0]))
    opt = AdamW(
        [{"params": {"a": a}, "lr_scale": 1.0}, {"params": {"b": b}, "lr_scale": 4.0}],
        lr=0.01,
        weight_decay=0.0,
    )
    opt.zero_grad()
    ((a + b) * Tensor(np.array([1.0]))).sum().backward()
    opt.step()
    da = 1.0 - a.data[0]
    db = 1.0 - b.data[0]
    assert db == pytest.approx(4.0 * da, rel=1e-6)


def test_adamw_first_step_size_is_lr():
    # with bias correction, |step 1| = lr for any nonzero constant grad
    p = Parameter(np.array([0.0]))
    opt = AdamW({"p": p}, lr=0.25, weight_decay=0.0)
    opt.zero_grad()
    (p * Tensor(np.array([3.0]))).sum().backward()
    opt.step()
    assert p.data[0] == pytest.approx(-0.25, rel=1e-6)


def test_cosine_schedule_endpoints():
    assert cosine_lr(0, 100, 1e-3) == pytest.approx(1e-3)
    assert cosine_lr(100, 100, 1e-3) == pytest.approx(0.0, abs=1e-12)
    assert cosine_lr(50, 100, 1e-3) == pytest.approx(5e-4)
    assert cosine_lr(100, 100, 1e-3, floor=1e-5) == pytest.approx(1e-5)
    assert cosine_lr(150, 100, 1e-3, floor=1e-5) == pytest.approx(1e-5)


def test_cosine_schedule_monotone():
    vals = [cosine_lr(s, 200, 1.0) for s in range(201)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_linear_trains_to_fit_line():
    rng = named_rng(0, "test/linfit")
    x = rng.normal(size=(64, 3))
    true_w = np.array([[1.0], [-2.0], [0.5]])
    y = x @ true_w
    lin = Linear(3, 1, rng, dtype=np.float64)
    opt = AdamW(dict(lin.named_parameters()), lr=0.05, weight_decay=0.0)
    for _ in range(400):
        opt.zero_grad()
        pred = lin(Tensor(x))
        ((pred - Tensor(y)) ** 2).mean().backward()
        opt.step()
    np.testing.assert_allclose(lin.weight.data, true_w, atol=1e-2)


def test_module_state_dict_roundtrip():
    rng = named_rng(1, "test/sd")

    class Net(Module):
        def __init__(self):
            super().__init__()
            self.a = Linear(2, 3, rng)
            self.b = Linear(3, 1, rng)

    n1, n2 = Net(), Net()
    state = n1.state_dict()
    n2.load_state_dict(state)
    for (k1, p1), (k2, p2) in zip(n1.named_parameters(), n2.named_parameters()):
        assert k1 == k2
        np.testing.assert_array_equal(p1.data, p2.data)


def test_state_dict_rejects_mismatch():
    rng = named_rng(2, "test/sd2")
    lin = Linear(2, 2, rng)
    state = lin.state_dict()
    state["bogus"] = np.zeros(1)
    with pytest.raises(KeyError):
        lin.load_state_dict(state)


def test_named_parameters_stable_order():
    rng = named_rng(3, "test/order")

    class Net(Module):
        def __init__(self):
            super().__init__()
            self.first = Linear(2, 2, rng)
            self.second = Linear(2, 2, rng)

    names = [k for k, _ in Net().named_parameters()]
    assert names == ["first.weight", "first.bias", "second.weight", "second.bias"]
