"""Caption decoder: masking, causality, loss, and greedy decoding."""

import numpy as np
import pytest

from hirisk.autograd import Tensor
from hirisk.config import ModelConfig
from hirisk.lm import NEG_INF, CaptionDecoder, prefix_causal_mask
from hirisk.optim import AdamW


def _lm(vocab_size=12, max_seq=24, n_visual=2, prompt=(3, 4), dtype="float32", seed=0):
    cfg = ModelConfig(d_l=32, lm_layers=2, lm_heads=2)
    return CaptionDecoder(vocab_size, max_seq, n_visual, np.asarray(prompt), cfg, seed).astype(dtype)


def test_mask_against_brute_force():
    for prefix, total in ((3, 7), (1, 5), (4, 4), (2, 9)):
        m = prefix_causal_mask(prefix, total)
        for i in range(total):
            for j in range(total):
                visible = j < prefix or j <= i
                assert m[i, j] == (0.0 if visible else NEG_INF)


def test_logits_do_not_depend_on_future_answer_tokens():
    lm = _lm(dtype="float64")
    rng = np.random.default_rng(0)
    z = Tensor(rng.normal(size=(2, 2, 32)))
    ids = rng.integers(0, 12, size=(2, 6))
    _, base = lm.forward_hidden(z, ids)
    p = lm.prefix_len
    for k in range(6):
        bumped = ids.copy()
        bumped[:, k] = (bumped[:, k] + 1) % 12
        _, out = lm.forward_hidden(z, bumped)
        assert np.array_equal(out.data[:, : p + k, :], base.data[:, : p + k, :])
        assert not np.allclose(out.data[:, p + k, :], base.data[:, p + k, :])


def test_every_position_sees_the_visual_prefix():
    lm = _lm(dtype="float64")
    rng = np.random.default_rng(1)
    z = rng.normal(size=(1, 2, 32))
    ids = rng.integers(0, 12, size=(1, 5))
    _, a = lm.forward_hidden(Tensor(z), ids)
    z2 = z.copy()
    z2[0, 1] += 0.5
    _, b = lm.forward_hidden(Tensor(z2), ids)
    # all answer predictions shift when the visual tokens change
    p = lm.prefix_len
    diffs = np.abs(a.data[:, p - 1 :, :] - b.data[:, p - 1 :, :]).max(axis=(0, 2))
    assert (diffs > 0).all()


def test_uniform_logits_loss_is_log_vocab():
    lm = _lm(vocab_size=17, dtype="float64")
    lm.head.weight.data[:] = 0.0
    lm.head.bias.data[:] = 0.0
    rng = np.random.default_rng(2)
    z = Tensor(rng.normal(size=(3, 2, 32)))
    ids = rng.integers(0, 17, size=(3, 6))
    mask = np.ones_like(ids, dtype=np.float64)
    mask[1, 4:] = 0.0
    loss, _ = lm.caption_loss(z, ids, mask)
    assert float(loss.data) == pytest.approx(np.log(17.0), rel=1e-12)


def test_masked_positions_drop_out_of_the_loss():
    lm = _lm(dtype="float64")
    rng = np.random.default_rng(3)
    z = Tensor(rng.normal(size=(1, 2, 32)))
    ids = rng.integers(0, 12, size=(1, 6))
    mask = np.ones((1, 6))
    loss_full, _ = lm.caption_loss(z, ids, mask)
    # manual recomputation from the raw logits
    _, logits = lm.forward_hidden(z, ids)
    p = lm.prefix_len
    pred = logits.data[:, p - 1 : p + 5, :]
    logp = pred - np.log(np.exp(pred - pred.max(-1, keepdims=True)).sum(-1, keepdims=True)) - pred.max(-1, keepdims=True)
    picked = np.take_along_axis(logp, ids[..., None], axis=-1)[..., 0]
    assert float(loss_full.data) == pytest.approx(-picked.mean(), rel=1e-10)
    mask2 = mask.copy()
    mask2[0, 3] = 0.0
    loss_part, _ = lm.caption_loss(z, ids, mask2)
    expect = -(picked * mask2).sum() / mask2.sum()
    assert float(loss_part.data) == pytest.approx(expect, rel=1e-10)


def test_sequence_length_guard():
    lm = _lm(max_seq=10)  # prefix is 4, so answers cap at 6
    z = Tensor(np.zeros((1, 2, 32), dtype=np.float32))
    with pytest.raises(ValueError):
        lm.forward_hidden(z, np.zeros((1, 7), dtype=np.int64))
    with pytest.raises(ValueError):
        lm.answer_hidden(Tensor(np.zeros((1, 9, 32))), 2, 8)


def test_overfit_then_greedy_reproduction():
    eos, pad = 1, 0
    lm = _lm(vocab_size=12, seed=3)
    rng = np.random.default_rng(5)
    z = Tensor(rng.normal(size=(2, 2, 32)).astype(np.float32))
    # two answers of different length, eos-terminated, pad-filled
    ids = np.array([[5, 7, 9, 2, eos, pad], [8, 6, eos, pad, pad, pad]])
    mask = (ids != pad).astype(np.float32)
    mask[0, 4] = 1.0  # keep the eos positions supervised
    mask[1, 2] = 1.0
    opt = AdamW([{"params": dict(lm.named_parameters()), "lr_scale": 1.0}], lr=3e-3)
    loss = None
    for _ in range(400):
        loss, _ = lm.caption_loss(z, ids, mask)
        lm.zero_grad()
        loss.backward()
        opt.step()
    assert float(loss.data) < 0.1
    out, _ = lm.greedy_decode(z, max_new=6, eos_id=eos, pad_id=pad)
    assert out[0, :5].tolist() == [5, 7, 9, 2, eos]
    assert out[1, :3].tolist() == [8, 6, eos]
    # lockstep decoding pads the finished row and is deterministic
    assert (out[1, 3:] == pad).all()
    again, _ = lm.greedy_decode(z, max_new=6, eos_id=eos, pad_id=pad)
    assert np.array_equal(out, again)
